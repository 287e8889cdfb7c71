//go:build race

package dataflows

// raceEnabled reports a race-detector build. Under it sync.Pool drops
// pooled objects at random, so allocation counts through fmt (whose
// printers are pooled) vary from run to run.
const raceEnabled = true
