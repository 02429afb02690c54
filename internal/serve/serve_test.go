package serve

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rog/internal/engine"
	"rog/internal/nn"
	"rog/internal/rowsync"
	"rog/internal/simnet"
	"rog/internal/tensor"
)

// harnessFor builds the shared test rig: a tiny MLP, a sharded training
// state over its row partition, and a publisher shadowing the merges.
type rig struct {
	k      *simnet.Kernel
	st     *engine.State
	part   *rowsync.Partition
	pub    *Publisher
	srv    *Server
	units  int
	inDim  int
	outDim int
}

func newRig(t *testing.T, workers, shards int, cfg Config) *rig {
	t.Helper()
	model := nn.NewClassifierMLP(4, []int{6}, 3, tensor.NewRNG(7))
	part := rowsync.NewPartition(model.Params(), rowsync.Rows)
	pol, err := engine.New("rog", engine.Params{Workers: workers, Threshold: 1 << 30, NumUnits: part.NumUnits()})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	st := engine.NewStateSharded(pol, part, workers, 1.0, shards)
	pub := NewPublisher(st, part, model.Params(), 0.05)
	r := &rig{
		k: simnet.NewKernel(), st: st, part: part, pub: pub,
		units: part.NumUnits(), inDim: 4, outDim: 3,
	}
	scratch := nn.NewClassifierMLP(4, []int{6}, 3, tensor.NewRNG(7))
	if cfg.Clock == nil {
		cfg.Clock = KernelClock{K: r.k}
	}
	r.srv = NewServer(pub, scratch, r.inDim, cfg)
	return r
}

// mergeRound merges iteration iter of every worker over every unit —
// after it the global minimum is iter.
func (r *rig) mergeRound(iter int64) {
	vals := make([]float32, 0, 8)
	for u := 0; u < r.units; u++ {
		un := r.part.Unit(u)
		vals = vals[:0]
		for i := 0; i < un.Len; i++ {
			vals = append(vals, float32(u%5)*0.01+float32(iter)*0.001)
		}
		for w := 0; w < 2; w++ {
			r.st.Merge(w, u, vals, iter)
		}
	}
}

func TestPublisherInitialSnapshot(t *testing.T) {
	r := newRig(t, 2, 2, Config{})
	snap := r.pub.Current()
	if snap == nil {
		t.Fatal("no initial snapshot")
	}
	if snap.Version() != 0 || snap.Seq() != 1 {
		t.Fatalf("initial snapshot version=%d seq=%d, want 0/1", snap.Version(), snap.Seq())
	}
	if snap.NumUnits() != r.units {
		t.Fatalf("snapshot has %d units, want %d", snap.NumUnits(), r.units)
	}
}

func TestPublisherAdvancesWithMinimum(t *testing.T) {
	r := newRig(t, 2, 2, Config{})
	// A single worker's merges do not move the minimum: no publication.
	vals := make([]float32, r.part.Unit(0).Len)
	r.st.Merge(0, 0, vals, 1)
	if got := r.pub.Version(); got != 0 {
		t.Fatalf("published version %d after one worker's merge, want 0", got)
	}
	r.mergeRound(1)
	if got := r.pub.Version(); got != 1 {
		t.Fatalf("published version %d after full round, want 1", got)
	}
	r.mergeRound(2)
	if got := r.pub.Version(); got != 2 {
		t.Fatalf("published version %d after two rounds, want 2", got)
	}
	if n := r.pub.Publishes(); n != 3 { // initial + two advances
		t.Fatalf("publishes = %d, want 3", n)
	}
}

func TestSnapshotImmutableUnderLaterMerges(t *testing.T) {
	r := newRig(t, 2, 2, Config{})
	r.mergeRound(1)
	snap := r.pub.Current()
	frozen := make([][]float32, snap.NumUnits())
	for u := range frozen {
		frozen[u] = append([]float32(nil), snap.Row(u)...)
	}
	for it := int64(2); it <= 5; it++ {
		r.mergeRound(it)
	}
	for u := range frozen {
		got := snap.Row(u)
		for i := range frozen[u] {
			if got[i] != frozen[u][i] {
				t.Fatalf("unit %d elem %d mutated after later merges: %v != %v",
					u, i, got[i], frozen[u][i])
			}
		}
	}
	if r.pub.Version() != 5 {
		t.Fatalf("live version %d, want 5", r.pub.Version())
	}
}

func TestServerBatchesWindow(t *testing.T) {
	r := newRig(t, 2, 1, Config{WindowSeconds: 0.01})
	var replies []Reply
	input := []float32{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 5; i++ {
		if err := r.srv.Submit(Request{ID: int64(i + 1), Input: input}, func(rep Reply) {
			rep.Output = append([]float32(nil), rep.Output...) // valid only until done returns
			replies = append(replies, rep)
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if len(replies) != 0 {
		t.Fatalf("%d replies before the window elapsed", len(replies))
	}
	r.k.RunUntilIdle(100)
	if len(replies) != 5 {
		t.Fatalf("got %d replies, want 5", len(replies))
	}
	st := r.srv.Stats()
	if st.Batches != 1 {
		t.Fatalf("ran %d forward passes for one window, want 1", st.Batches)
	}
	for _, rep := range replies {
		if rep.Version != 0 || len(rep.Output) != r.outDim {
			t.Fatalf("reply %+v: want version 0, %d outputs", rep, r.outDim)
		}
	}
}

func TestServerMaxBatchFlushesEarly(t *testing.T) {
	r := newRig(t, 2, 1, Config{WindowSeconds: 10, MaxBatch: 3})
	served := 0
	input := []float32{1, 2, 3, 4}
	for i := 0; i < 3; i++ {
		if err := r.srv.Submit(Request{ID: int64(i + 1), Input: input}, func(Reply) { served++ }); err != nil {
			t.Fatal(err)
		}
	}
	if served != 3 {
		t.Fatalf("maxBatch reached but only %d served", served)
	}
	// The still-armed window timer must no-op on the empty queue, and a
	// later submit must arm a fresh flush.
	r.k.RunUntilIdle(100)
	if err := r.srv.Submit(Request{ID: 9, Input: input}, func(Reply) { served++ }); err != nil {
		t.Fatal(err)
	}
	r.k.RunUntilIdle(100)
	if served != 4 {
		t.Fatalf("served %d after post-flush submit, want 4", served)
	}
}

func TestReadGateParksUntilFreshSnapshot(t *testing.T) {
	r := newRig(t, 2, 2, Config{WindowSeconds: 0})
	var got *Reply
	err := r.srv.Submit(Request{ID: 1, MinVersion: 2, Input: []float32{1, 0, 0, 1}}, func(rep Reply) {
		got = &rep
	})
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunUntilIdle(100)
	if got != nil {
		t.Fatalf("request served at version %d before its floor published", got.Version)
	}
	if r.pub.Parked() != 1 {
		t.Fatalf("parked = %d, want 1", r.pub.Parked())
	}
	r.mergeRound(1)
	r.k.RunUntilIdle(100)
	if got != nil {
		t.Fatal("request served below its staleness floor")
	}
	r.mergeRound(2)
	r.k.RunUntilIdle(100)
	if got == nil {
		t.Fatal("request still parked after its floor published")
	}
	if got.Version < 2 {
		t.Fatalf("served version %d < demanded floor 2", got.Version)
	}
	if r.pub.Parked() != 0 {
		t.Fatalf("parked = %d after serve, want 0", r.pub.Parked())
	}
}

// TestReadGateNeverLosesAWakeup is meant for -race: submitters keep
// demanding one version past the published one while a trainer merges a
// round, so parks race the publication that satisfies them. After each
// round every request submitted so far must have been answered, and none
// may be left parked; at the end each was answered exactly once, at or above
// its floor. A Submit that checks the version before taking the gate's lock
// can park a request the racing publication has already passed over — it is
// then never answered.
func TestReadGateNeverLosesAWakeup(t *testing.T) {
	const (
		rounds     = 100
		submitters = 4
	)
	r := newRig(t, 2, 2, Config{MaxBatch: 1})
	type request struct {
		floor   int64
		answers atomic.Int32
	}
	var (
		ids      atomic.Int64
		answered atomic.Int64
		reqs     [submitters][]*request
	)
	input := []float32{0.1, 0.2, 0.3, 0.4}
	for round := int64(1); round <= rounds; round++ {
		var started, done sync.WaitGroup
		for s := range reqs {
			started.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				first := true
				for {
					v := r.pub.Version()
					if v >= round {
						break
					}
					q := &request{floor: v + 1}
					reqs[s] = append(reqs[s], q)
					err := r.srv.Submit(Request{ID: ids.Add(1), MinVersion: q.floor, Input: input}, func(rep Reply) {
						if rep.Version < q.floor {
							t.Errorf("request answered at version %d below its floor %d", rep.Version, q.floor)
						}
						q.answers.Add(1)
						answered.Add(1)
					})
					if err != nil {
						t.Error(err)
						break
					}
					if first {
						started.Done()
						first = false
					}
				}
				if first {
					started.Done()
				}
			}()
		}
		started.Wait() // every submitter is in its loop: the publish races them
		r.mergeRound(round)
		done.Wait()
		if n := r.pub.Parked(); n != 0 {
			t.Fatalf("round %d: %d requests still parked after version %d published", round, n, r.pub.Version())
		}
		if got, want := answered.Load(), ids.Load(); got != want {
			t.Fatalf("round %d: %d of %d requests answered", round, got, want)
		}
	}
	for s := range reqs {
		for _, q := range reqs[s] {
			if n := q.answers.Load(); n != 1 {
				t.Fatalf("a request with floor %d was answered %d times", q.floor, n)
			}
		}
	}
}

func TestSubmitRejectsBadWidthAndClosed(t *testing.T) {
	r := newRig(t, 2, 1, Config{})
	if err := r.srv.Submit(Request{ID: 1, Input: []float32{1, 2}}, func(Reply) {}); err == nil {
		t.Fatal("submit accepted a wrong-width input")
	}
	r.srv.Close()
	if err := r.srv.Submit(Request{ID: 2, Input: []float32{1, 2, 3, 4}}, func(Reply) {}); err == nil {
		t.Fatal("submit accepted a request after Close")
	}
}

func TestCloseFlushesQueued(t *testing.T) {
	r := newRig(t, 2, 1, Config{WindowSeconds: 100})
	served := 0
	if err := r.srv.Submit(Request{ID: 1, Input: []float32{1, 2, 3, 4}}, func(Reply) { served++ }); err != nil {
		t.Fatal(err)
	}
	r.srv.Close()
	if served != 1 {
		t.Fatalf("Close served %d queued requests, want 1", served)
	}
}

// reference is the forward pass of input through a model holding exactly
// the current snapshot's rows.
func (r *rig) reference(input []float32) []float32 {
	ref := nn.NewClassifierMLP(4, []int{6}, 3, tensor.NewRNG(99))
	r.pub.Current().Materialize(r.part, ref.Params())
	return ref.Forward(tensor.NewFrom(1, 4, append([]float32(nil), input...))).Data
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestServedMatchesMaterializedForward pins the serving math: a reply must
// equal a forward pass through a model holding exactly the snapshot's rows.
func TestServedMatchesMaterializedForward(t *testing.T) {
	r := newRig(t, 2, 2, Config{})
	r.mergeRound(1)
	input := []float32{0.3, -0.1, 0.7, 0.2}
	var got []float32
	if err := r.srv.Submit(Request{ID: 1, MinVersion: 1, Input: input}, func(rep Reply) {
		got = append([]float32(nil), rep.Output...) // valid only until done returns
	}); err != nil {
		t.Fatal(err)
	}
	r.k.RunUntilIdle(100)
	if got == nil {
		t.Fatal("no reply")
	}
	if want := r.reference(input); !sameBits(got, want) {
		t.Fatalf("output %v, want %v", got, want)
	}
}

// TestSubmitDoesNotRetainInput: a request that waits — for its batching
// window, or parked on the read gate — must be answered from the features it
// was submitted with, even when the caller reuses the slice the moment
// Submit returns.
func TestSubmitDoesNotRetainInput(t *testing.T) {
	for _, tc := range []struct {
		name       string
		window     float64
		minVersion int64
	}{
		{"queued", 0.01, 0},
		{"parked", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 2, 2, Config{WindowSeconds: tc.window})
			features := []float32{0.3, -0.1, 0.7, 0.2}
			input := append([]float32(nil), features...)
			var got []float32
			if err := r.srv.Submit(Request{ID: 1, MinVersion: tc.minVersion, Input: input}, func(rep Reply) {
				got = append([]float32(nil), rep.Output...)
			}); err != nil {
				t.Fatal(err)
			}
			for i := range input {
				input[i] = 99
			}
			r.mergeRound(1)
			r.k.RunUntilIdle(100)
			if got == nil {
				t.Fatal("no reply")
			}
			if want := r.reference(features); !sameBits(got, want) {
				t.Fatalf("reply %v, want the forward pass of the submitted features %v", got, want)
			}
		})
	}
}

// TestReadGateReleaseIsOneBatch: the requests one publication releases are
// resumed inside the training merge that published, so they must not be
// served there — even at window 0 they wait for the flush the Clock runs,
// and that one flush serves them together.
func TestReadGateReleaseIsOneBatch(t *testing.T) {
	r := newRig(t, 2, 2, Config{})
	served := 0
	for i := 0; i < 2; i++ {
		if err := r.srv.Submit(Request{ID: int64(i + 1), MinVersion: 1, Input: []float32{1, 0, 0, 1}}, func(rep Reply) {
			if rep.Version < 1 {
				t.Errorf("request %d served at version %d below its floor 1", rep.ID, rep.Version)
			}
			served++
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.pub.Parked(); n != 2 {
		t.Fatalf("parked = %d, want 2", n)
	}
	r.mergeRound(1)
	if served != 0 {
		t.Fatalf("%d requests served inside the merge that released them", served)
	}
	if n := r.pub.Parked(); n != 0 {
		t.Fatalf("parked = %d after the release, want 0", n)
	}
	r.k.RunUntilIdle(100)
	if served != 2 {
		t.Fatalf("served %d, want 2", served)
	}
	if st := r.srv.Stats(); st.Batches != 1 {
		t.Fatalf("one release ran %d forward passes, want 1", st.Batches)
	}
}

// TestSubmitFlushAllocs guards the in-process request path: at window 0 a
// directly admitted request is appended to a pooled flush buffer, run
// through the forward pass and answered on the submitting goroutine, with no
// allocation once the pool and the activations have grown.
func TestSubmitFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	r := newRig(t, 2, 2, Config{MaxBatch: 4})
	input := []float32{0.1, 0.2, 0.3, 0.4}
	var sink float32
	done := func(rep Reply) { sink += rep.Output[0] }
	submit := func() {
		if err := r.srv.Submit(Request{ID: 1, Input: input}, done); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, submit); allocs != 0 {
		t.Fatalf("Submit+flush allocates %.1f times per request, want 0", allocs)
	}
	if st := r.srv.Stats(); st.Served != st.Batches {
		t.Fatalf("%d requests in %d forward passes: window 0 must serve each on its submitter", st.Served, st.Batches)
	}
}

// TestSubmitRacingCloseIsServedOrRejected is meant for -race: submitters
// race Close with a window that never elapses during the test, so only
// Close's final flush can serve a request. Every Submit must either be
// refused or have been answered by the time Close returns — a Submit that
// checks `closed` and appends in two critical sections can slip its request
// in after that flush, where nothing ever serves it.
func TestSubmitRacingCloseIsServedOrRejected(t *testing.T) {
	const (
		rounds     = 100
		submitters = 4
	)
	input := []float32{0.1, 0.2, 0.3, 0.4}
	for round := 0; round < rounds; round++ {
		r := newRig(t, 2, 2, Config{WindowSeconds: 100, Clock: newWallClock()})
		var accepted, answered atomic.Int64
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r.srv.Submit(Request{Input: input}, func(Reply) { answered.Add(1) }) == nil {
					accepted.Add(1)
				}
			}()
		}
		for accepted.Load() < submitters {
			runtime.Gosched()
		}
		r.srv.Close()
		atClose := answered.Load()
		wg.Wait()
		if got := accepted.Load(); got != atClose {
			t.Fatalf("round %d: %d submits accepted, %d answered when Close returned", round, got, atClose)
		}
	}
}

// TestConcurrentFlushesKeepRepliesApart is meant for -race: with MaxBatch 1
// every Submit flushes on its caller's goroutine, so two submitters run two
// flushes at once over the one scratch replica and the one set of reused
// activations. Each reply must be the forward pass of its own input — a
// reply read out of the shared buffers after fwdMu is released would carry
// the other flush's logits.
func TestConcurrentFlushesKeepRepliesApart(t *testing.T) {
	r := newRig(t, 2, 2, Config{MaxBatch: 1})
	const perClient = 400
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			private := nn.NewClassifierMLP(4, []int{6}, 3, tensor.NewRNG(7)) // the published version 0
			rng := tensor.NewRNG(uint64(c) + 1)
			for i := 0; i < perClient; i++ {
				x := tensor.New(1, r.inDim)
				x.FillNormal(rng, 1)
				want := private.Forward(x).Clone() // the next Forward reuses its output
				// The reply may come from the other submitter's flush, which
				// took both queued requests; wg waits for it either way.
				wg.Add(1)
				err := r.srv.Submit(Request{ID: int64(c*perClient + i), Input: x.Data}, func(rep Reply) {
					defer wg.Done()
					if !tensor.NewFrom(1, r.outDim, rep.Output).Equal(want) {
						t.Errorf("client %d request %d: reply %v, own forward %v", c, i, rep.Output, want.Data)
					}
				})
				if err != nil {
					wg.Done()
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
