package harness

import (
	"slices"
	"sync"
)

// memoBound is how many builds the memo keeps. The largest sweep the
// registry runs has three option values (Fig. 9's 4, 6 and 8 workers), one
// after the other; four holds a whole sweep. A CRUDA build is about 1 MB.
const memoBound = 4

// memo keeps the most recent distinct CRUDA builds, so that the systems of
// an experiment, which all start from one options value, synthesize and
// pretrain once between them. Every caller gets the same build: only what
// nobody writes after the build may be in it.
type memo struct {
	mu     sync.Mutex
	keys   []string      // guarded by mu; oldest first, at most memoBound
	builds []*crudaBuild // guarded by mu; builds[i] was built for keys[i]
}

// get returns the build for key, building it under the lock on the first
// request: a second caller waits for it rather than building beside it, and
// a build that panics leaves the memo as it was. At the bound the oldest
// build goes.
func (m *memo) get(key string, build func() *crudaBuild) *crudaBuild {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := slices.Index(m.keys, key); i >= 0 {
		return m.builds[i]
	}
	b := build()
	if len(m.keys) == memoBound {
		m.keys, m.builds = slices.Delete(m.keys, 0, 1), slices.Delete(m.builds, 0, 1)
	}
	m.keys, m.builds = append(m.keys, key), append(m.builds, b)
	return b
}
