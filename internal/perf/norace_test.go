//go:build !race

package perf

// raceEnabled reports whether the race detector instruments this test
// binary; its per-access bookkeeping swamps the costs wall-time gates
// compare.
const raceEnabled = false
