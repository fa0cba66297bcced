//go:build race

package main

// raceEnabled is true under the race detector, which slows the smoke run
// several fold, so its time limit does not apply.
const raceEnabled = true
