//go:build race

package transport

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put back, so the pooled WriteFrame path allocates at random.
const raceEnabled = true
