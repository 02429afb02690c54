package livenet

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"rog/internal/core"
	"rog/internal/engine"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/tensor"
	"rog/internal/trace"
)

// The parity tests pin the tentpole invariant of the engine extraction: the
// simnet runtime (internal/core, virtual time) and the socket runtime (this
// package, net.Pipe) execute the *same* policy code, so with identical
// deterministic gradient streams they must merge identical per-worker
// (unit, version) sequences and complete identical iteration counts.
//
// Determinism across transports requires gradients independent of model
// parameters (the two runtimes' replicas diverge — pulls apply at different
// wall instants) and no speculative cuts (tiny model, generous budgets), so
// every planned row is delivered on both sides.

// mergeTracer hands f the (worker, unit, stamped version) of every
// KindMerge event a simnet run traces: the same sequence the socket
// server's OnMerge observes.
func mergeTracer(f func(worker, unit int, iter int64)) obs.Tracer {
	return tracerFunc(func(e obs.Event) {
		if e.Kind == obs.KindMerge {
			f(e.Worker, e.Unit, e.Version)
		}
	})
}

type tracerFunc func(obs.Event)

func (f tracerFunc) Emit(e obs.Event) { f(e) }

type mergeEvent struct {
	unit int
	iter int64
}

const (
	parityWorkers   = 3
	parityThreshold = 4
	parityIters     = 8
)

func parityModel() *nn.Sequential {
	return nn.NewClassifierMLP(5, []int{7}, 3, tensor.NewRNG(1))
}

// fillGrads writes the next slice of worker w's deterministic gradient
// stream straight into the model's gradient matrices — no forward pass, so
// the stream is identical no matter what the parameters hold.
func fillGrads(model *nn.Sequential, rng *tensor.RNG) {
	for _, g := range model.Grads() {
		for i := range g.Data {
			g.Data[i] = rng.Float32()*2 - 1
		}
	}
}

func gradRNG(w int) *tensor.RNG { return tensor.NewRNG(uint64(w)*977 + 13) }

// parityWorkload adapts the gradient streams to the simnet Workload
// interface.
type parityWorkload struct {
	models []*nn.Sequential
	rngs   []*tensor.RNG
}

func newParityWorkload(workers int) *parityWorkload {
	p := &parityWorkload{}
	for w := 0; w < workers; w++ {
		p.models = append(p.models, parityModel())
		p.rngs = append(p.rngs, gradRNG(w))
	}
	return p
}

func (p *parityWorkload) Model(w int) *nn.Sequential { return p.models[w] }
func (p *parityWorkload) ComputeGradients(w int) float64 {
	fillGrads(p.models[w], p.rngs[w])
	return 0
}
func (p *parityWorkload) Evaluate() float64 { return 0 }
func (p *parityWorkload) Increasing() bool  { return true }

// simnetMergeLog runs the strategy on the discrete-event runtime and
// returns the per-worker merge sequences and worker-0 iteration count.
func simnetMergeLog(t *testing.T, strategy core.Strategy) ([][]mergeEvent, int) {
	t.Helper()
	logs := make([][]mergeEvent, parityWorkers)
	cfg := core.Config{
		Strategy:       strategy,
		Workers:        parityWorkers,
		Threshold:      parityThreshold,
		Env:            trace.Outdoor,
		Seed:           11,
		ComputeSeconds: 0.01,
		// A one-byte "paper model" scales the links so fast that no
		// speculative deadline ever cuts a transmission.
		PaperModelBytes: 1.0,
		LR:              0.1,
		MaxIterations:   parityIters,
		Trace: mergeTracer(func(w, u int, iter int64) {
			logs[w] = append(logs[w], mergeEvent{u, iter})
		}),
	}
	res, err := core.Run(cfg, newParityWorkload(parityWorkers))
	if err != nil {
		t.Fatalf("simnet run: %v", err)
	}
	return logs, res.Iterations
}

// livenetMergeLog runs the same policy over net.Pipe connections, driving
// the workers round-robin so the staleness gate never parks a handler.
// shards picks the server's lock split; merge order is shard-independent
// because pushes walk units ascending.
func livenetMergeLog(t *testing.T, policyName string, shards int) ([][]mergeEvent, []int64) {
	t.Helper()
	proto := parityModel()
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	params := engine.Params{
		Workers:   parityWorkers,
		Threshold: parityThreshold,
		NumUnits:  part.NumUnits(),
	}
	serverPolicy, err := engine.New(policyName, params)
	if err != nil {
		t.Fatalf("engine.New(%q): %v", policyName, err)
	}

	logs := make([][]mergeEvent, parityWorkers)
	srv, err := NewServer(part, ServerConfig{
		Workers:   parityWorkers,
		Threshold: parityThreshold,
		Policy:    serverPolicy,
		Shards:    shards,
		// Generous floor: the pipe is microseconds per frame, so neither a
		// pull nor (after the first pull-done) a push is ever cut.
		MTAFloorSeconds: 5,
		OnMerge: func(w, u int, iter int64) {
			logs[w] = append(logs[w], mergeEvent{u, iter})
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}

	var (
		ws     []*Worker
		models []*nn.Sequential
		conns  []net.Conn
		wg     sync.WaitGroup
	)
	for i := 0; i < parityWorkers; i++ {
		pol, err := engine.New(policyName, params)
		if err != nil {
			t.Fatalf("engine.New(%q): %v", policyName, err)
		}
		m := parityModel()
		models = append(models, m)
		c, s := net.Pipe()
		conns = append(conns, c, s)
		wg.Add(1)
		go func(id int, conn net.Conn) {
			defer wg.Done()
			if err := srv.HandleConn(id, conn); err != nil {
				t.Errorf("server handler %d: %v", id, err)
			}
		}(i, s)
		w := NewWorker(m, part, c, WorkerConfig{
			ID: i, Workers: parityWorkers, Threshold: parityThreshold,
			Policy: pol, LR: 0.1,
		})
		// Pre-seed the budget the first pull-done would deliver, so even the
		// very first push cannot be cut by the cold-start 2 ms default.
		w.budget = 5
		ws = append(ws, w)
	}

	rngs := make([]*tensor.RNG, parityWorkers)
	for i := range rngs {
		rngs[i] = gradRNG(i)
	}
	for k := 0; k < parityIters; k++ {
		for i, w := range ws {
			i := i
			if err := w.RunIteration(func() { fillGrads(models[i], rngs[i]) }); err != nil {
				t.Fatalf("worker %d iter %d: %v", i, k, err)
			}
		}
	}
	for _, c := range conns {
		c.Close()
	}
	srv.Close()
	wg.Wait()

	iters := make([]int64, parityWorkers)
	for i, w := range ws {
		iters[i] = w.Iterations()
	}
	return logs, iters
}

func diffMergeLogs(sim, live [][]mergeEvent) error {
	for w := range sim {
		if len(sim[w]) != len(live[w]) {
			return fmt.Errorf("worker %d merged %d rows on simnet, %d on livenet",
				w, len(sim[w]), len(live[w]))
		}
		for i := range sim[w] {
			if sim[w][i] != live[w][i] {
				return fmt.Errorf("worker %d merge %d: simnet %+v, livenet %+v",
					w, i, sim[w][i], live[w][i])
			}
		}
	}
	return nil
}

func runParity(t *testing.T, strategy core.Strategy, policyName string) {
	simLogs, simIters := simnetMergeLog(t, strategy)
	liveLogs, liveIters := livenetMergeLog(t, policyName, 1)

	if simIters != parityIters {
		t.Fatalf("simnet completed %d iterations, want %d", simIters, parityIters)
	}
	for w, it := range liveIters {
		if it != parityIters {
			t.Fatalf("livenet worker %d completed %d iterations, want %d", w, it, parityIters)
		}
	}
	for w := range simLogs {
		if len(simLogs[w]) == 0 {
			t.Fatalf("worker %d merged nothing on simnet", w)
		}
	}
	if err := diffMergeLogs(simLogs, liveLogs); err != nil {
		t.Fatal(err)
	}
}

func TestParitySSP(t *testing.T) { runParity(t, core.SSP, "ssp") }
func TestParityROG(t *testing.T) { runParity(t, core.ROG, "rog") }

// TestParityShardedServer pins the refactor's parity claim on the socket
// runtime: a server split across 4 shard locks merges exactly the
// per-worker (unit, version) sequences the single-lock server — and
// therefore the simnet reference — produces. Pushes walk units ascending,
// so the shard split changes which lock each merge takes but never the
// order the merges land in.
func TestParityShardedServer(t *testing.T) {
	simLogs, _ := simnetMergeLog(t, core.ROG)
	liveLogs, liveIters := livenetMergeLog(t, "rog", 4)
	for w, it := range liveIters {
		if it != parityIters {
			t.Fatalf("sharded livenet worker %d completed %d iterations, want %d", w, it, parityIters)
		}
	}
	if err := diffMergeLogs(simLogs, liveLogs); err != nil {
		t.Fatal(err)
	}
}

// TestParityLayersMomentumWeights pins the worker half the two runtimes now
// share (engine.Replica): with layer-granularity units and momentum, a
// pulled unit spans many rows and must walk them through the optimizer one
// by one. The socket worker used to send such a unit down the momentum-free
// branch, so its weights drifted from the simnet run's. BSP makes the
// comparison exact: every round all pushes merge before any pull is
// encoded, so — driving the socket workers' pushes in the order the simnet
// run merged them — both runtimes pull bit-identical averaged rows and must
// end on bit-identical weights.
func TestParityLayersMomentumWeights(t *testing.T) {
	const momentum = 0.9
	// pushOrder[k] lists the workers in the order round k+1's pushes merged.
	pushOrder := make([][]int, parityIters)
	wl := newParityWorkload(parityWorkers)
	_, err := core.Run(core.Config{
		Strategy:        core.BSP,
		Workers:         parityWorkers,
		Granularity:     rowsync.Layers,
		Env:             trace.Outdoor,
		Seed:            11,
		ComputeSeconds:  0.01,
		PaperModelBytes: 1.0,
		LR:              0.1,
		Momentum:        momentum,
		MaxIterations:   parityIters,
		Trace: mergeTracer(func(w, u int, iter int64) {
			if u == 0 {
				pushOrder[iter-1] = append(pushOrder[iter-1], w)
			}
		}),
	}, wl)
	if err != nil {
		t.Fatalf("simnet run: %v", err)
	}

	part := rowsync.NewPartition(parityModel().Params(), rowsync.Layers)
	params := engine.Params{Workers: parityWorkers, NumUnits: part.NumUnits()}
	newPolicy := func() engine.Policy {
		pol, err := engine.New("bsp", params)
		if err != nil {
			t.Fatalf("engine.New: %v", err)
		}
		return pol
	}
	// A push returns once the handler has read its frames, not once it has
	// merged them; pushed signals the merge of a push's last unit, so the
	// next push can be held back until this one has landed.
	pushed := make(chan struct{}, 1)
	srv, err := NewServer(part, ServerConfig{
		Workers: parityWorkers,
		Policy:  newPolicy(),
		OnMerge: func(_, u int, _ int64) {
			if u == part.NumUnits()-1 {
				pushed <- struct{}{}
			}
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	var (
		ws    []*Worker
		conns []net.Conn
		wg    sync.WaitGroup
	)
	for i := 0; i < parityWorkers; i++ {
		c, s := net.Pipe()
		conns = append(conns, c, s)
		wg.Add(1)
		go func(id int, conn net.Conn) {
			defer wg.Done()
			if err := srv.HandleConn(id, conn); err != nil {
				t.Errorf("server handler %d: %v", id, err)
			}
		}(i, s)
		ws = append(ws, NewWorker(parityModel(), part, c, WorkerConfig{
			ID: i, Workers: parityWorkers, Policy: newPolicy(), LR: 0.1, Momentum: momentum,
		}))
	}
	rngs := make([]*tensor.RNG, parityWorkers)
	for i := range rngs {
		rngs[i] = gradRNG(i)
	}
	for k, order := range pushOrder {
		if len(order) != parityWorkers {
			t.Fatalf("simnet round %d merged pushes of workers %v", k+1, order)
		}
		// The round's pushes, in simnet merge order; every handler then
		// parks at the BSP gate until the last one lands.
		for _, i := range order {
			w := ws[i]
			w.iter++
			fillGrads(w.rep.Model, rngs[i])
			w.rep.Accumulate()
			if _, err := w.push(w.iter); err != nil {
				t.Fatalf("worker %d round %d push: %v", i, k+1, err)
			}
			<-pushed
		}
		for i, w := range ws {
			if err := w.pull(); err != nil {
				t.Fatalf("worker %d round %d pull: %v", i, k+1, err)
			}
		}
	}
	for _, c := range conns {
		c.Close()
	}
	srv.Close()
	wg.Wait()

	for i, w := range ws {
		sim, live := wl.models[i].Params(), w.rep.Model.Params()
		for p := range sim {
			for j := range sim[p].Data {
				if sim[p].Data[j] != live[p].Data[j] {
					t.Fatalf("worker %d param %d[%d]: simnet %v, livenet %v",
						i, p, j, sim[p].Data[j], live[p].Data[j])
				}
			}
		}
	}
}
