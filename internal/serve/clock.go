// Package serve is the distributed inference tier: it consumes versioned
// model snapshots from a training engine.State and answers inference
// requests against them, without ever serializing training.
//
// The pieces, in data-flow order:
//
//   - Publisher shadows the training stream as model weights (an observer
//     on State's transition chain, it takes every merged row's averaged
//     contribution) and publishes immutable copy-on-write Snapshots whenever
//     the global row-version minimum advances. Publication takes per-shard locks only — there is
//     no WithAllLocked barrier anywhere on the serving path.
//   - Server batches concurrent requests into one nn forward pass per
//     snapshot, and enforces the bounded-staleness read gate: a request may
//     demand `version ≥ v_min` and parks on the Publisher's read gate until a
//     fresh-enough snapshot lands — the RSP staleness bound applied to reads.
//   - The wire layer (frame.go, conn.go) exposes the same Server over
//     sockets with a fixed-width request/reply frame riding the transport
//     package's marker framing, so the lossnet channel wrapper drops whole
//     serve frames exactly as it drops training pushes.
//
// Like the engine, the package runs on injected time (roglint's wallclock
// pass enforces it): the simnet drivers pass the kernel's virtual clock,
// the socket runtime a monotonic wall-clock adapter.
package serve

import "rog/internal/simnet"

// Clock abstracts the serving tier's time source: Now in seconds since run
// start, After scheduling a callback. Implementations decide the threading
// contract — KernelClock is single-goroutine like the kernel it wraps; the
// socket runtime injects a timer-backed clock safe for concurrent use.
type Clock interface {
	Now() float64
	After(d float64, fn func())
}

// KernelClock adapts a simnet kernel as a serve Clock. It inherits the
// kernel's single-threaded discipline: only the goroutine driving the
// kernel may touch it.
type KernelClock struct {
	K *simnet.Kernel
}

// Now returns the kernel's virtual time.
func (c KernelClock) Now() float64 { return c.K.Now() }

// After schedules fn d virtual seconds from now.
func (c KernelClock) After(d float64, fn func()) { c.K.After(d, fn) }
