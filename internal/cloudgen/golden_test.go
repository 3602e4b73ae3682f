package cloudgen

// goldenTraceDigest is the FNV-64a digest of the canonical encoding of
// Generate(42, smallConfig()) — see TestGoldenTrace. Re-record only on a
// deliberate generator change, and say so in the commit message.
const goldenTraceDigest = "c86af1f82645d364"

// goldenRegionDigest is the same digest for Generate(42, regionConfig()) —
// see TestGoldenTraceFullRegion.
const goldenRegionDigest = "5b30e5dcf0005848"
