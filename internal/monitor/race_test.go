//go:build race

package monitor

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops some of what is handed back, so allocation counts mean nothing.
const raceEnabled = true
