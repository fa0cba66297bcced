//go:build race

package service

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of Puts, so allocation counts vary from run to run.
const raceEnabled = true
