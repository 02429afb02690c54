// Command rogserve runs the inference tier: it serves bounded-staleness
// predictions from versioned snapshots of a training run.
//
// Two modes:
//
//	rogserve -listen 127.0.0.1:7070    # train in-process, serve snapshots over TCP
//	rogserve -connect 127.0.0.1:7070 -n 10 -min-version 3
//
// The simnet load sweep is the harness "serve" experiment: rogbench -exp
// serve [-full]. Both modes take -cpuprofile/-memprofile (go tool pprof -top <file>); a
// -listen server runs until interrupted and writes them then.
//
// The listen mode trains the same synthetic workload the harness sweep
// uses (a 6-input, 4-class MLP under the ROG policy) on the wall clock and
// answers serve-protocol requests while training runs; the connect mode is
// a load client, optionally over a lossy channel (-loss) with per-attempt
// timeouts and retries, the serve-tier analogue of training's
// loss-tolerant push path.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"rog/internal/atp"
	"rog/internal/engine"
	"rog/internal/lossnet"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/serve"
	"rog/internal/tensor"
)

// inDim/classes mirror the harness serve experiment's model so the demo
// sweep and the socket mode serve the same architecture.
const (
	inDim   = 6
	classes = 4
)

func main() {
	var (
		listen  = flag.String("listen", "", "train in-process and serve snapshots on this TCP address")
		connect = flag.String("connect", "", "send inference requests to a rogserve -listen instance")

		workers   = flag.Int("workers", 4, "listen: simulated training robots")
		threshold = flag.Int("threshold", 8, "listen: ROG staleness threshold")
		shards    = flag.Int("shards", 2, "listen: unit-range shards in the training state")
		lr        = flag.Float64("lr", 0.05, "listen: SGD step applied to each absorbed row")
		period    = flag.Float64("period", 0.5, "listen: seconds between training rounds")
		rounds    = flag.Int("rounds", 0, "listen: stop training after this many rounds (0 = until killed)")
		window    = flag.Float64("window", 0.02, "listen: batching window in seconds")
		maxBatch  = flag.Int("max-batch", 16, "listen: flush a batch early at this depth")

		n        = flag.Int("n", 10, "connect: number of requests")
		minV     = flag.Int64("min-version", 0, "connect: demand a snapshot at least this fresh (read gate)")
		inputCSV = flag.String("input", "", "connect: comma-separated feature vector (default: seeded random)")
		loss     = flag.Float64("loss", 0, "connect: drop this fraction of request frames (lossy channel demo)")
		timeout  = flag.Float64("timeout", 2, "connect: per-attempt reply timeout in seconds")
		retries  = flag.Int("retries", 5, "connect: attempts per request before giving up")

		seed = flag.Uint64("seed", 1, "seed for the model, gradients and client inputs")
		prof = obs.ProfileFlags()
	)
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rogserve: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if (*listen == "") == (*connect == "") {
		fmt.Fprintln(os.Stderr, "rogserve: pick exactly one of -listen or -connect")
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rogserve: %v\n", err)
		os.Exit(1)
	}
	switch {
	case *listen != "":
		if *workers < 2 || *threshold < 2 || *period <= 0 {
			fmt.Fprintln(os.Stderr, "rogserve: -listen needs workers >= 2, threshold >= 2 and period > 0")
			os.Exit(2)
		}
		// The server runs until killed: an interrupt is the end of its run.
		interrupt := make(chan os.Signal, 1)
		signal.Notify(interrupt, os.Interrupt)
		failed := make(chan error, 1)
		go func() {
			failed <- runServer(*listen, *workers, *threshold, *shards, *lr, *period, *window, *maxBatch, *rounds, *seed)
		}()
		select {
		case err := <-failed:
			fmt.Fprintf(os.Stderr, "rogserve: %v\n", err)
			os.Exit(1)
		case <-interrupt:
		}
	default:
		if err := runClient(*connect, *n, *minV, *inputCSV, *loss, *timeout, *retries, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "rogserve: %v\n", err)
			os.Exit(1)
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "rogserve: %v\n", err)
		os.Exit(1)
	}
}

// wallClock adapts the monotonic wall clock to the serve tier's injected
// Clock, anchored at construction so timestamps stay small.
type wallClock struct{ start time.Time }

func (c wallClock) Now() float64 { return time.Since(c.start).Seconds() }

func (c wallClock) After(d float64, fn func()) {
	time.AfterFunc(time.Duration(d*float64(time.Second)), fn)
}

// runServer trains the synthetic workload in-process and serves snapshots
// of it over TCP until killed.
func runServer(addr string, workers, threshold, shards int, lr, period, window float64, maxBatch, rounds int, seed uint64) error {
	proto := nn.NewClassifierMLP(inDim, []int{8}, classes, tensor.NewRNG(seed))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	pol, err := engine.New("rog", engine.Params{
		Workers:   workers,
		Threshold: threshold,
		NumUnits:  part.NumUnits(),
		Coeff:     atp.DefaultCoefficients(),
	})
	if err != nil {
		return err
	}
	st := engine.NewStateSharded(pol, part, workers, 1.0, shards)
	pub := serve.NewPublisher(st, part, proto.Params(), lr)
	scratch := nn.NewClassifierMLP(inDim, []int{8}, classes, tensor.NewRNG(1))
	scratch.CopyParamsFrom(proto)
	srv := serve.NewServer(pub, scratch, inDim, serve.Config{
		WindowSeconds: window,
		MaxBatch:      maxBatch,
		Clock:         wallClock{start: time.Now()},
	})

	units := make([]int, part.NumUnits())
	for u := range units {
		units[u] = u
	}
	for w := 0; w < workers; w++ {
		go func(w int) {
			r := tensor.NewRNG(seed*100003 + uint64(w)*31 + 7)
			// Stagger the workers a little so merges interleave like a
			// real team instead of arriving in lockstep.
			time.Sleep(time.Duration(float64(w) * 0.05 * period * float64(time.Second)))
			for iter := int64(1); rounds == 0 || iter <= int64(rounds); iter++ {
				time.Sleep(time.Duration(period * float64(time.Second)))
				vals := make([][]float32, len(units))
				for u := range units {
					row := make([]float32, part.Unit(u).Len)
					for i := range row {
						row[i] = float32(r.Norm() * 0.01)
					}
					vals[u] = row
				}
				st.MergeBatch(w, units, vals, iter)
			}
		}(w)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %d-unit model on %s (%d workers, threshold %d, round every %.2gs)\n",
		part.NumUnits(), ln.Addr(), workers, threshold, period)
	go func() {
		for range time.Tick(2 * time.Second) {
			s := srv.Stats()
			fmt.Printf("  version %-4d snapshots %-4d served %-6d batches %-5d parked %d\n",
				pub.Version(), s.Publishes, s.Served, s.Batches, s.Parked)
		}
	}()
	return srv.Serve(ln)
}

// runClient sends n requests and prints each reply. With -loss it wraps
// the connection in a frame-dropping channel and retries each request on a
// read-deadline, exactly like a robot polling the tier over a radio link.
func runClient(addr string, n int, minV int64, inputCSV string, loss, timeout float64, retries int, seed uint64) error {
	input, err := parseInput(inputCSV, seed)
	if err != nil {
		return err
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	conn := raw
	var lossy *lossnet.Conn
	if loss > 0 {
		lossy = lossnet.WrapConn(raw, lossnet.NewBernoulli(loss, seed), nil)
		conn = lossy
	}
	client := serve.NewClient(conn)
	defer client.Close()

	deadline := time.Duration(timeout * float64(time.Second))
	for i := 0; i < n; i++ {
		var rep serve.Reply
		start := time.Now()
		attempts := 0
		for ; attempts < retries; attempts++ {
			if loss > 0 {
				_ = conn.SetReadDeadline(time.Now().Add(deadline))
			}
			if rep, err = client.Do(input, minV); err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("request %d never survived the channel after %d attempts: %w", i, attempts, err)
		}
		best, bestV := 0, rep.Output[0]
		for c, v := range rep.Output {
			if v > bestV {
				best, bestV = c, v
			}
		}
		fmt.Printf("reply %2d: version %-4d seq %-4d class %d  (%.1fms, %d attempt(s))\n",
			i, rep.Version, rep.Seq, best, float64(time.Since(start).Microseconds())/1000, attempts+1)
	}
	if lossy != nil {
		drops, bytes := lossy.Dropped()
		fmt.Printf("lossy channel dropped %d frames (%d bytes)\n", drops, bytes)
	}
	return nil
}

// parseInput builds the request vector: the -input CSV when given, a
// seeded random vector otherwise.
func parseInput(csv string, seed uint64) ([]float32, error) {
	if csv == "" {
		r := tensor.NewRNG(seed*7919 + 13)
		v := make([]float32, inDim)
		for i := range v {
			v[i] = float32(r.Norm())
		}
		return v, nil
	}
	parts := strings.Split(csv, ",")
	v := make([]float32, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 32)
		if err != nil {
			return nil, fmt.Errorf("bad -input element %q: %v", p, err)
		}
		v = append(v, float32(f))
	}
	return v, nil
}
