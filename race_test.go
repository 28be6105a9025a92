//go:build race

package geckoftl_test

// raceEnabled reports that the race detector instruments this build: it
// allocates on the program's behalf, so allocation budgets do not apply.
const raceEnabled = true
