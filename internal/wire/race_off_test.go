//go:build !race

package wire

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts are meaningless.
const raceEnabled = false
