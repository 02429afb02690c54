//go:build race

package core

// raceEnabled: the race detector's runtime allocates on its own schedule, so
// a whole run's malloc count is exact only without it.
const raceEnabled = true
