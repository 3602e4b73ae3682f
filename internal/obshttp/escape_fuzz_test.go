package obshttp

import (
	"bytes"
	"strings"
	"testing"

	"vsched/internal/progress"
)

// unescapeLabel inverts appendEscaped; only used to state the round-trip
// property in tests.
func unescapeLabel(s string) (string, bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' || c == '\n' {
			return "", false // raw specials must never survive escaping
		}
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", false
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", false
		}
	}
	return b.String(), true
}

// FuzzAppendEscaped checks the two properties the exposition format needs:
// the escaped form never contains a raw quote/newline or a dangling
// backslash (so the surrounding `name="..."` syntax can't be broken), and
// escaping is lossless.
func FuzzAppendEscaped(f *testing.F) {
	for _, seed := range []string{
		"", "plain", `back\slash`, `quo"te`, "new\nline", "héllo wörld",
		`\\`, `\"`, "\n\n\n", `trailing\`, "mixed\\\"\nstuff", string([]byte{0, 1, 255}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		esc := appendEscaped(nil, s)
		if bytes.ContainsRune(esc, '\n') {
			t.Fatalf("escaped %q contains raw newline: %q", s, esc)
		}
		for i := 0; i < len(esc); i++ {
			if esc[i] == '"' && (i == 0 || esc[i-1] != '\\') {
				t.Fatalf("escaped %q contains unescaped quote: %q", s, esc)
			}
		}
		back, ok := unescapeLabel(string(esc))
		if !ok {
			t.Fatalf("escaped %q is not well-formed: %q", s, esc)
		}
		if back != s {
			t.Fatalf("round-trip lost data: %q -> %q -> %q", s, esc, back)
		}
		// A full sample line built from this name must stay one line.
		line := appendSample(nil, s, progress.Sample{Name: s, Value: 1})
		if n := bytes.Count(line, []byte{'\n'}); n != 1 {
			t.Fatalf("sample line for %q has %d newlines: %q", s, n, line)
		}
	})
}
