package livenet

import (
	"net"
	"sync"
	"testing"
	"time"

	"rog/internal/nn"
	"rog/internal/rowsync"
	"rog/internal/serve"
	"rog/internal/tensor"
)

// serveWallClock adapts the monotonic wall clock to the serve tier's
// injected Clock, anchored at construction so timestamps stay small.
type serveWallClock struct{ start time.Time }

func newServeWallClock() serveWallClock { return serveWallClock{start: time.Now()} }

func (c serveWallClock) Now() float64 { return time.Since(c.start).Seconds() }

func (c serveWallClock) After(d float64, fn func()) {
	time.AfterFunc(time.Duration(d*float64(time.Second)), fn)
}

// TestServingTierRidesLiveTraining attaches the inference tier to a real
// socket training run: the Publisher hooks the live server's merge stream
// through State().Observe, an inference Server answers over TCP while the
// workers train over pipes, and the replies must advance monotonically
// through the published versions without perturbing training.
func TestServingTierRidesLiveTraining(t *testing.T) {
	const workers, threshold, iters = 3, 4, 40
	proto := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(5))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	srv, err := NewServer(part, ServerConfig{Workers: workers, Threshold: threshold})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}

	// Hook the serving tier in before the first connection.
	pub := serve.NewPublisher(srv.State(), part, proto.Params(), 0.05)
	scratch := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(1))
	scratch.CopyParamsFrom(proto)
	inf := serve.NewServer(pub, scratch, 6, serve.Config{
		MaxBatch: 1,
		Clock:    newServeWallClock(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = inf.Serve(ln) }()

	// The training side: one handler goroutine + one worker per robot.
	var handlers sync.WaitGroup
	var conns []net.Conn
	var ws []*Worker
	var models []*nn.Sequential
	for i := 0; i < workers; i++ {
		m := nn.NewClassifierMLP(6, []int{10}, 4, tensor.NewRNG(1))
		m.CopyParamsFrom(proto)
		models = append(models, m)
		c, s := net.Pipe()
		conns = append(conns, c, s)
		handlers.Add(1)
		go func(id int, conn net.Conn) {
			defer handlers.Done()
			if err := srv.HandleConn(id, conn); err != nil {
				t.Errorf("server handler %d: %v", id, err)
			}
		}(i, s)
		ws = append(ws, NewWorker(m, part, c, WorkerConfig{
			ID: i, Threshold: threshold, LR: 0.1, Momentum: 0.9,
		}))
	}

	data := newClusterData(9)
	var trainers sync.WaitGroup
	for i, w := range ws {
		trainers.Add(1)
		go func(id int, w *Worker) {
			defer trainers.Done()
			r := tensor.NewRNG(uint64(id)*31 + 7)
			for k := 0; k < iters; k++ {
				if err := w.RunIteration(func() {
					x, y := data.batch(r, 16)
					_, g := nn.SoftmaxCrossEntropy(models[id].Forward(x), y)
					models[id].Backward(g)
				}); err != nil {
					t.Errorf("worker %d iter %d: %v", id, k, err)
					return
				}
			}
		}(i, w)
	}

	// The serving client hammers the tier while training runs. A sequential
	// client's replies must ride monotonically non-decreasing snapshot
	// versions: the hot swap only ever installs a newer snapshot.
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	client := serve.NewClient(cc)
	input := []float32{0.5, -1, 0.25, 0, 1, -0.5}
	var lastVersion int64 = -1
	served := 0
	trainDone := make(chan struct{})
	go func() { trainers.Wait(); close(trainDone) }()
loop:
	for {
		select {
		case <-trainDone:
			break loop
		default:
		}
		rep, err := client.Do(input, 0)
		if err != nil {
			t.Errorf("client: %v", err)
			break
		}
		if len(rep.Output) != 4 {
			t.Errorf("reply width %d, want 4", len(rep.Output))
			break
		}
		if rep.Version < lastVersion {
			t.Errorf("snapshot version went backwards: %d after %d", rep.Version, lastVersion)
			break
		}
		lastVersion = rep.Version
		served++
	}
	trainers.Wait()

	// Training has quiesced: demand the latest published version explicitly
	// and check the read gate answers from it (or newer).
	want := pub.Version()
	rep, err := client.Do(input, want)
	if err != nil {
		t.Fatalf("fresh read: %v", err)
	}
	if rep.Version < want {
		t.Fatalf("read gate answered version %d below demanded %d", rep.Version, want)
	}

	if err := client.Close(); err != nil {
		t.Errorf("client close: %v", err)
	}
	ln.Close()
	inf.Close()
	for _, c := range conns {
		c.Close()
	}
	srv.Close()
	handlers.Wait()

	if served == 0 {
		t.Fatal("no requests served during training")
	}
	if pub.Publishes() < 2 {
		t.Fatalf("publisher advanced %d times; the serving tier never saw training progress", pub.Publishes())
	}
	if pub.Version() == 0 {
		t.Fatal("published version never advanced past the initial snapshot")
	}
	// The tier must not have disturbed training itself.
	for i, w := range ws {
		if w.Iterations() != iters {
			t.Fatalf("worker %d completed %d iterations, want %d", i, w.Iterations(), iters)
		}
	}
	if got := srv.MaxStalenessObserved(); got > threshold {
		t.Fatalf("staleness %d exceeded threshold %d", got, threshold)
	}
}
