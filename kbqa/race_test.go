//go:build race

package kbqa

// raceEnabled: the race detector is on, and sync.Pool drops a quarter of
// what is put back on purpose.
const raceEnabled = true
