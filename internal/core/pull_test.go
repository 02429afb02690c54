package core

import (
	"testing"

	"rog/internal/compress"
	"rog/internal/lossnet"
	"rog/internal/obs"
	"rog/internal/tensor"
)

// seedServerCopy merges one row per unit from worker `from` at iteration
// iter, so every worker's server copy holds mass in every unit.
func seedServerCopy(c *cluster, from int, iter int64, val float32) {
	for u := 0; u < c.part.NumUnits(); u++ {
		vals := make([]float32, c.part.Unit(u).Len)
		for i := range vals {
			vals[i] = val * float32(1+(i+u)%3) * float32(1-2*(i%2))
		}
		c.state.Merge(from, u, vals, iter)
	}
}

// pullNow plans and transmits worker w's iteration-n pull and runs the
// kernel until it completes, returning the plan's units and the delivered
// count.
func pullNow(t *testing.T, c *cluster, w int, n int64) (units []int, delivered int) {
	t.Helper()
	plan := c.peer[w].HoldPull(c.state, n)
	finished := false
	c.transmit(w, n, obs.DirPull, plan, func(d int, _, _ float64) {
		delivered, finished = d, true
	})
	for !finished && c.k.Step() {
	}
	if !finished {
		t.Fatalf("worker %d pull %d never completed", w, n)
	}
	return plan.Units, delivered
}

func cloneParams(c *cluster, w int) []*tensor.Matrix {
	var out []*tensor.Matrix
	for _, p := range c.rep[w].Model.Params() {
		out = append(out, p.Clone())
	}
	return out
}

func sameParams(a, b []*tensor.Matrix) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestPullCarriesWhatServerHeldWhenItLeft is the causality rule both
// runtimes share: a pull's content is fixed when it is planned. A row that
// merges while worker 0's pull is in the air is absent from that pull — the
// replica ends up exactly where a run without the late merge puts it — and
// present in worker 0's next one.
func TestPullCarriesWhatServerHeldWhenItLeft(t *testing.T) {
	cfg := testConfig(SSP, 4)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	late := newCluster(cfg, newTestWorkload(3, 41)) // a row merges mid-pull
	ref := newCluster(cfg, newTestWorkload(3, 41))  // it merges after the pull
	for _, c := range []*cluster{late, ref} {
		seedServerCopy(c, 1, 1, 0.5)
	}
	late.k.After(1e-6, func() { seedServerCopy(late, 1, 2, -0.25) })
	pullNow(t, late, 0, 1)
	pullNow(t, ref, 0, 1)
	if !sameParams(late.rep[0].Model.Params(), ref.rep[0].Model.Params()) {
		t.Fatal("a row merged while the pull was in flight leaked into it")
	}
	for u := 0; u < late.part.NumUnits(); u++ {
		if late.state.Acc[0].MeanAbs(u) == 0 {
			t.Fatalf("unit %d: the late merge's mass vanished with the in-flight pull's drain", u)
		}
	}

	seedServerCopy(ref, 1, 2, -0.25)
	pullNow(t, late, 0, 2)
	pullNow(t, ref, 0, 2)
	if !sameParams(late.rep[0].Model.Params(), ref.rep[0].Model.Params()) {
		t.Fatal("the late row did not ride the next pull unchanged")
	}
	for u := 0; u < late.part.NumUnits(); u++ {
		if got := late.state.Acc[0].MeanAbs(u); got != 0 {
			t.Fatalf("unit %d: server copy holds %g after both pulls", u, got)
		}
	}
}

// everyOther loses every second packet: enough loss to fold best-effort rows
// without ever starving the reliable class.
type everyOther struct{ n int }

func (m *everyOther) Lost(float64) bool { m.n++; return m.n%2 == 1 }

// TestPullRestoresUndeliveredMass cuts a speculative pull short two ways —
// the MTA budget expires, the loss channel drops best-effort rows — and
// checks conservation row by row: a delivered row moved the replica and left
// the server copy empty; an undelivered one left the replica alone and is
// back in the server copy as exactly the mass its payload carried (the rest
// sits in the downlink codec's residual). With a checkpoint store attached,
// replaying the WAL reproduces the live state after the restore.
func TestPullRestoresUndeliveredMass(t *testing.T) {
	for _, tc := range []struct {
		name    string
		budget  float64
		lossy   bool
		durable bool
	}{
		{"budget cut", 0.05, false, false},
		{"budget cut, journaled", 0.05, false, true},
		{"best-effort loss", 1e6, true, false},
		{"best-effort loss, journaled", 1e6, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(ROG, 4)
			if tc.durable {
				cfg, _, _ = durableConfig(t, ROG, 4)
			}
			if tc.lossy {
				cfg.Loss = lossnet.Spec{Kind: "iid", Rate: 0.05}
			}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			c := newCluster(cfg, newTestWorkload(3, 43))
			if err := c.setupDurable(); err != nil {
				t.Fatal(err)
			}
			if tc.lossy {
				c.links[0].loss = &everyOther{}
			}
			seedServerCopy(c, 1, 1, 0.5)
			for w := 0; w < cfg.Workers; w++ {
				c.state.ObservePush(w, 1, tc.budget, tc.budget, true)
			}

			// What each unit's payload will carry: the downlink codec starts
			// with zero residual, as this reference one does.
			ref := compress.NewCodec(c.part.Widths())
			carried := make([][]float32, c.part.NumUnits())
			for u := range carried {
				carried[u] = make([]float32, c.part.Unit(u).Len)
				compress.Decode(ref.Encode(u, c.state.Acc[0].Unit(u)), carried[u])
			}
			before := cloneParams(c, 0)

			units, delivered := pullNow(t, c, 0, 1)
			if !tc.lossy && delivered >= len(units) {
				t.Fatalf("budget never cut the pull: %d of %d rows delivered", delivered, len(units))
			}
			after := c.rep[0].Model.Params()
			restored := 0
			for _, u := range units {
				un := c.part.Unit(u)
				moved := false
				for i := un.Offset; i < un.Offset+un.Len; i++ {
					if before[un.Param].Data[i] != after[un.Param].Data[i] {
						moved = true
					}
				}
				acc := c.state.Acc[0].Unit(u)
				if moved {
					if c.state.Acc[0].MeanAbs(u) != 0 {
						t.Fatalf("unit %d was applied and is still in the server copy", u)
					}
					continue
				}
				restored++
				for i, v := range acc {
					if v != carried[u][i] {
						t.Fatalf("unit %d[%d]: restored %g, payload carried %g", u, i, v, carried[u][i])
					}
				}
			}
			if restored == 0 {
				t.Fatal("every planned row was delivered; nothing exercised the restore")
			}
			if tc.lossy && c.state.Loss.RowsLostFolded != restored {
				t.Fatalf("restored %d rows, loss stats folded %d", restored, c.state.Loss.RowsLostFolded)
			}

			if !tc.durable {
				return
			}
			c.store.Crash()
			rec, _, err := c.store.RecoverSharded(c.policy, c.part, cfg.Workers, 1.0, cfg.Shards)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < cfg.Workers; w++ {
				for u := 0; u < c.part.NumUnits(); u++ {
					live, got := c.state.Acc[w].Unit(u), rec.Acc[w].Unit(u)
					for i := range live {
						if live[i] != got[i] {
							t.Fatalf("WAL replay diverged at worker %d unit %d[%d]: %g, live %g",
								w, u, i, got[i], live[i])
						}
					}
				}
			}
		})
	}
}

// TestBSPCritPathAttributesGateStall reconciles the critical-path analyzer
// with the run's own accounting for the strategy whose waiting is the whole
// story: every second a BSP worker spends between its push and its pull is a
// traced gate stall, so per worker the analyzer's stall equals the summed
// IterEnd stall and nothing is left in the merge residual.
func TestBSPCritPathAttributesGateStall(t *testing.T) {
	cfg := testConfig(BSP, 0)
	cp := obs.NewCritPath()
	stall := make([]float64, cfg.Workers)
	cfg.Trace = obs.Tee(cp, tracerFunc(func(e obs.Event) {
		if e.Kind == obs.KindIterEnd {
			stall[e.Worker] += e.Stall
		}
	}))
	res, err := Run(cfg, newTestWorkload(3, 45))
	if err != nil {
		t.Fatal(err)
	}
	if res.Composition.Stall <= 0 {
		t.Fatal("BSP run recorded no stall")
	}
	rep := cp.Report()
	if len(rep.Errors) != 0 {
		t.Fatalf("trace structurally broken: %v", rep.Errors)
	}
	for _, w := range rep.Workers {
		if w.StallSeconds <= 0 {
			t.Errorf("worker %d: no gate stall attributed", w.Worker)
		}
		if !closeEnough(w.StallSeconds, stall[w.Worker]) {
			t.Errorf("worker %d: critpath stall %.9f s, IterEnd stall %.9f s", w.Worker, w.StallSeconds, stall[w.Worker])
		}
		if !closeEnough(w.MergeSeconds, 0) {
			t.Errorf("worker %d: %.9f s left unexplained in the merge residual", w.Worker, w.MergeSeconds)
		}
	}
}

type tracerFunc func(obs.Event)

func (f tracerFunc) Emit(e obs.Event) { f(e) }
