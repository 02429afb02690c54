//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put back, so the pooled flush buffers allocate at random.
const raceEnabled = true
