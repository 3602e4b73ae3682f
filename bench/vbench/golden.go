package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// goldenPath is the golden file, relative to the repository root that vbench
// runs from.
const goldenPath = "bench/testdata/golden.json"

// goldenFile maps "<workload>/<seed>/<size>" to each op's recorded digest:
// the sha256 of a paper report's text, fleet.SnapshotDigest of a macro
// cell's final state, or the sha256 of a micro cell's simulated outcome.
type goldenFile map[string]map[string]string

func goldenKey(workload string, seed int64, size string) string {
	return fmt.Sprintf("%s/%d/%s", workload, seed, size)
}

// loadGolden reads the golden file. A missing file is an error unless the
// run records, which starts it afresh.
func loadGolden(record bool) (goldenFile, error) {
	b, err := os.ReadFile(goldenPath)
	if errors.Is(err, fs.ErrNotExist) && record {
		return goldenFile{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	g := goldenFile{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenPath, err)
	}
	return g, nil
}

// save writes the file with sorted keys, so re-recording unchanged digests
// leaves it byte-identical.
func (g goldenFile) save() error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
