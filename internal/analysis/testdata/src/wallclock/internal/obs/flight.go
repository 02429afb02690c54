// Fixture for the two obs shapes that tempt a wall-clock read: a header
// written over a retained event tail must reuse the events' virtual
// timestamp, and the vitals come from package runtime — which is fine; only
// package time is banned here.
package obs

import (
	"runtime"
	"time"
)

// entry mimics a retained event: stamped once, at emission, by the
// injected clock.
type entry struct {
	at float64
}

// dumpHeader re-stamping with host time is the regression this fixture
// pins: the retained tail carries virtual timestamps, and a wall-clock
// header would postdate every entry it describes.
func dumpHeader() entry {
	return entry{at: float64(time.Now().Unix())} // want "time.Now"
}

// retained is the correct shape — the header reuses the newest entry's
// virtual timestamp.
func retained(tail []entry) entry {
	if len(tail) == 0 {
		return entry{}
	}
	return tail[len(tail)-1]
}

// vitals reads process gauges from package runtime; nothing here touches
// package time, so the pass must stay quiet.
func vitals() (int, uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtime.NumGoroutine(), ms.HeapAlloc
}
