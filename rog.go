// Package rog is a Go reproduction of "ROG: A High Performance and Robust
// Distributed Training System for Robotic IoT" (MICRO 2022).
//
// ROG performs data-parallel training across a team of robots connected by
// an unstable wireless network. Instead of synchronizing whole models, it
// breaks every layer's parameters into rows and schedules the transmission
// of individual rows against the fluctuating bandwidth:
//
//   - RSP (Row Stale Parallel) bounds each row's staleness across workers
//     and across rows within a worker, preserving SSP's convergence
//     guarantee at row granularity.
//   - ATP (Adaptive Transmission Protocol) ranks rows by gradient magnitude
//     and staleness, and speculatively transmits them under a shared
//     MTA-time budget so that all devices spend roughly equal time
//     transmitting, whatever their instantaneous bandwidth.
//
// This package is the public face of the repository: strategy drivers
// (ROG plus the BSP/SSP/FLOWN baselines), the two workloads the paper
// evaluates (CRUDA domain adaptation and CRIMP implicit mapping), the
// synthetic wireless substrate, and the full experiment registry that
// regenerates every table and figure of the paper's evaluation.
//
// # Quick start
//
// Implement Workload on your model and data (tens of lines — see
// examples/quickstart), then run a strategy over a simulated robot team:
//
//	cfg := rog.Config{
//		Strategy:          rog.ROG,
//		Workers:           4,
//		Threshold:         4,
//		Env:               rog.Outdoor,
//		MaxVirtualSeconds: 600,
//	}
//	res, err := rog.Run(cfg, workload)
//
// Training math is real (from-scratch tensors, backprop and SGD live in
// internal packages); compute and transmission consume virtual time on a
// deterministic discrete-event kernel, so a "60-minute" experiment
// finishes in seconds and is reproducible bit-for-bit.
package rog

import (
	"io"

	"rog/internal/core"
	"rog/internal/durable"
	"rog/internal/lossnet"
	"rog/internal/metrics"
	"rog/internal/obs"
	"rog/internal/simnet"
	"rog/internal/trace"
)

// Strategy selects the synchronization algorithm.
type Strategy = core.Strategy

// Synchronization strategies.
const (
	// BSP is bulk synchronous parallel: a full barrier every iteration.
	BSP = core.BSP
	// SSP is stale synchronous parallel with a fixed staleness threshold.
	SSP = core.SSP
	// FLOWN is the dynamic-threshold scheduling baseline.
	FLOWN = core.FLOWN
	// ROG is the paper's row-granulated system (RSP + ATP).
	ROG = core.ROG
)

// Env selects the wireless environment profile.
type Env = trace.Env

// Environment profiles calibrated to the paper's Fig. 3 measurements.
const (
	// Indoor is the laboratory profile (moderate instability).
	Indoor = trace.Indoor
	// Outdoor is the campus-garden profile (severe instability).
	Outdoor = trace.Outdoor
)

// Config parameterizes one training run. See core.Config for field
// documentation.
type Config = core.Config

// Result reports a finished run: quality checkpoints, per-iteration time
// composition, energy, and optional micro-event samples.
type Result = core.Result

// Workload abstracts a training task: per-worker model replicas, local
// gradient computation, and a quality metric.
type Workload = core.Workload

// MicroSample is one Fig. 8 micro-event data point.
type MicroSample = core.MicroSample

// Run executes one experiment to completion.
func Run(cfg Config, wl Workload) (*Result, error) { return core.Run(cfg, wl) }

// FaultKind discriminates injected failures: worker crashes (membership
// churn) and link blackouts or flaps (connectivity loss without churn).
type FaultKind = simnet.FaultKind

// Fault kinds.
const (
	// FaultCrash removes a worker from the membership; with a duration it
	// rejoins (and resyncs) after the outage.
	FaultCrash = simnet.FaultCrash
	// FaultBlackout drops a worker's link capacity to zero for a duration.
	FaultBlackout = simnet.FaultBlackout
	// FaultFlap alternates a worker's link down/up with a given period.
	FaultFlap = simnet.FaultFlap
	// FaultServerCrash kills the parameter server (not a worker: the spec
	// takes no worker id, "servercrash@120+30"); the run must have a
	// checkpoint store (Config.Durable) to recover from.
	FaultServerCrash = simnet.FaultServerCrash
)

// FaultEvent is one scheduled failure in virtual time.
type FaultEvent = simnet.FaultEvent

// FaultSchedule scripts failures into a run via Config.Faults. Runs with
// identical schedules replay deterministically.
type FaultSchedule = simnet.FaultSchedule

// ParseFaultSchedule parses a comma-separated fault script, e.g.
// "crash:1@120+60,blackout:0@60+30,flap:3@100+120/10" — kind:worker@start,
// +duration for recovery, /period for flap cadence (seconds, virtual time).
func ParseFaultSchedule(spec string) (FaultSchedule, error) {
	return simnet.ParseFaultSchedule(spec)
}

// ChurnStats counts membership-churn events observed during a run; see
// Result.Churn.
type ChurnStats = metrics.ChurnStats

// RecoveryStats reports what parameter-server crash recovery cost during a
// run; see Result.Recovery.
type RecoveryStats = metrics.RecoveryStats

// CheckpointStore is the parameter server's durable checkpoint store: a
// write-ahead log of merge records plus atomic model snapshots, wired into
// a run via Config.Durable.
type CheckpointStore = durable.Store

// OpenCheckpoints opens (or creates) a checkpoint store in dir on the real
// filesystem.
func OpenCheckpoints(dir string) (*CheckpointStore, error) {
	return durable.Open(durable.OSFS{}, dir)
}

// LossSpec names a packet-loss channel model injected via Config.Loss:
// i.i.d. Bernoulli ("iid:0.05") or bursty Gilbert–Elliott ("ge:0.05" or
// "ge:0.05/16" with a mean burst length).
type LossSpec = lossnet.Spec

// ParseLossSpec parses the "kind:rate[/burst]" loss-model grammar.
func ParseLossSpec(spec string) (LossSpec, error) { return lossnet.ParseSpec(spec) }

// LossReliability selects how rows lost on the channel are recovered; see
// Config.Reliability.
type LossReliability = lossnet.Reliability

// Reliability modes.
const (
	// SelectiveReliability retransmits only a push plan's Must prefix (the
	// MTA floor plus RSP-forced rows); lost best-effort rows fold their
	// gradients back into the local accumulator and ride the next push.
	SelectiveReliability = lossnet.Selective
	// AllReliable retransmits every lost row until delivered.
	AllReliable = lossnet.AllReliable
)

// ParseLossReliability parses "selective" or "all".
func ParseLossReliability(s string) (LossReliability, error) {
	return lossnet.ParseReliability(s)
}

// LossStats counts loss-channel outcomes of a run; see Result.Loss.
type LossStats = metrics.LossStats

// BandwidthTrace is a piecewise-constant bandwidth series in Mbps.
type BandwidthTrace = trace.Trace

// GenerateTrace synthesizes a bandwidth trace with the calibrated profile
// of env, for the given duration in seconds.
func GenerateTrace(env Env, duration float64, seed uint64) *BandwidthTrace {
	return trace.GenerateEnv(env, duration, seed)
}

// Tracer receives the structured event stream of a run; set Config.Trace
// to enable tracing (nil keeps the hot paths allocation-free).
type Tracer = obs.Tracer

// TraceEvent is one structured trace event.
type TraceEvent = obs.Event

// Registry accumulates runtime counters, gauges and histograms; set
// Config.Metrics to enable collection.
type Registry = obs.Registry

// TraceSummary is a trace's stream totals (what rogtrace prints): a
// CritPath's Summary.
type TraceSummary = obs.Summary

// NewJSONLTracer writes one JSON object per event to w; Close flushes.
func NewJSONLTracer(w io.Writer) *obs.JSONLTracer { return obs.NewJSONLTracer(w) }

// NewChromeTracer writes a Chrome trace_event file (chrome://tracing,
// Perfetto) to w; Close finalizes the JSON document.
func NewChromeTracer(w io.Writer) *obs.ChromeTracer { return obs.NewChromeTracer(w) }

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// CritReport is the critical-path decomposition of a traced run: each
// worker's wall time split into compute / comm / gate-stall / merge
// segments, plus the top blocking (worker, unit) pairs and the stall
// duration distribution (what `rogtrace critpath` prints): a CritPath's
// Report.
type CritReport = obs.CritReport

// WorkerPath is one worker's critical-path row in a CritReport.
type WorkerPath = obs.WorkerPath

// BlockerRow is one blocking (worker, unit) pair in a CritReport, ranked
// by the stall seconds its merges released.
type BlockerRow = obs.BlockerRow

// CritPath is the trace analyser: it checks that a trace's events pair up
// and accounts them for two views, Summary and Report. Feed it as a Tracer
// (or tee it next to a JSONL sink), or read a stored trace with ReadTrace.
type CritPath = obs.CritPath

// NewCritPath creates an empty trace analyser.
func NewCritPath() *CritPath { return obs.NewCritPath() }

// ReadTrace runs a fresh trace analyser over a recorded JSONL trace.
func ReadTrace(r io.Reader) (*CritPath, error) { return obs.ReadTrace(r) }
