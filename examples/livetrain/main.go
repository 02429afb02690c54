// Livetrain: ROG over real sockets.
//
// The other examples drive the virtual-time simulator; this one runs the
// actual wire protocol — 1-bit compressed rows, marker-framed, speculative
// sends with wall-clock deadlines, RSP staleness control on a parameter
// server — between goroutine workers connected over TCP loopback. It is
// the in-process analogue of deploying the paper's system on a robot team.
//
// It is also the binary to profile the socket runtime with:
//
//	go run ./examples/livetrain -iters 20000 -cpuprofile cpu.prof -memprofile mem.prof
//	go tool pprof -top cpu.prof
package main

import (
	"flag"
	"fmt"
	"net"
	"sync"

	"rog/internal/livenet"
	"rog/internal/nn"
	"rog/internal/obs"
	"rog/internal/rowsync"
	"rog/internal/tensor"
)

const (
	workers   = 3
	threshold = 4
	classes   = 5
	dim       = 8
)

func main() {
	iters := flag.Int("iters", 60, "iterations per worker")
	prof := obs.ProfileFlags()
	flag.Parse()
	stopProfiles, err := prof.Start()
	if err != nil {
		panic(err)
	}

	// Shared synthetic task.
	r := tensor.NewRNG(42)
	centroids := make([][]float32, classes)
	for c := range centroids {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(r.Norm() * 2)
		}
		centroids[c] = v
	}
	batch := func(rr *tensor.RNG, n int) (*tensor.Matrix, []int) {
		x := tensor.New(n, dim)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			c := rr.Intn(classes)
			y[i] = c
			for j := 0; j < dim; j++ {
				x.Set(i, j, centroids[c][j]+float32(rr.Norm()))
			}
		}
		return x, y
	}

	// One pretrained prototype, cloned to every worker.
	proto := nn.NewClassifierMLP(dim, []int{16}, classes, tensor.NewRNG(7))
	part := rowsync.NewPartition(proto.Params(), rowsync.Rows)
	fmt.Printf("model: %d parameters in %d rows\n", proto.NumParams(), part.NumUnits())

	// Parameter server on TCP loopback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer ln.Close()
	srv, err := livenet.NewServer(part, livenet.ServerConfig{Workers: workers, Threshold: threshold})
	if err != nil {
		panic(err)
	}
	var serverWG sync.WaitGroup
	serverWG.Add(workers)
	go func() {
		for id := 0; id < workers; id++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(id int, conn net.Conn) {
				defer serverWG.Done()
				if err := srv.HandleConn(id, conn); err != nil {
					fmt.Println("server:", err)
				}
			}(id, conn)
		}
	}()

	evalX, evalY := batch(tensor.NewRNG(99), 300)
	models := make([]*nn.Sequential, workers)
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			panic(err)
		}
		m := nn.NewClassifierMLP(dim, []int{16}, classes, tensor.NewRNG(1))
		m.CopyParamsFrom(proto)
		models[id] = m
		w := livenet.NewWorker(m, part, conn, livenet.WorkerConfig{
			ID: id, Threshold: threshold, LR: 0.08, Momentum: 0.9,
		})
		wg.Add(1)
		go func(id int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			rr := tensor.NewRNG(uint64(id)*13 + 5)
			for k := 0; k < *iters; k++ {
				err := w.RunIteration(func() {
					x, y := batch(rr, 24)
					_, g := nn.SoftmaxCrossEntropy(models[id].Forward(x), y)
					models[id].Backward(g)
				})
				if err != nil {
					fmt.Printf("worker %d: %v\n", id, err)
					return
				}
				if id == 0 && (k+1)%10 == 0 {
					acc := nn.Accuracy(models[0].Forward(evalX), evalY)
					fmt.Printf("iteration %2d: worker-0 accuracy %.3f\n", k+1, acc)
				}
			}
		}(id, conn)
	}
	wg.Wait()
	srv.Close()
	serverWG.Wait()
	if err := stopProfiles(); err != nil {
		panic(err)
	}

	for id, m := range models {
		fmt.Printf("worker %d final accuracy: %.3f\n", id, nn.Accuracy(m.Forward(evalX), evalY))
	}
	fmt.Printf("max staleness observed at server: %d (threshold %d)\n",
		srv.MaxStalenessObserved(), threshold)
}
