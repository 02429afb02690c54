package core

import (
	"math"

	"rog/internal/atp"
	"rog/internal/lossnet"
	"rog/internal/simnet"
)

// minBudget floors the MTA-time budget so a transient zero-bandwidth
// estimate cannot collapse transmissions to nothing.
const minBudget = 0.05

// link is one hop a plan can ride: the channel, the device on it, that
// link's loss model (nil = lossless) and the worker id its events carry — a
// robot's index, or -(a+1) for aggregator a's uplink (infrastructure time).
type link struct {
	ch   *simnet.Channel
	dev  int
	loss lossnet.Model
	id   int
}

// sendPlan is the one place a plan's bytes become a flow on a link (pushes,
// pulls, aggregator uplink flushes, retransmission rounds and the rejoin
// resync all end here).
// It transmits the units in order: speculatively within `budget` seconds,
// but always completing the first mustCount units (Algo. 4 lines 3–7); an
// infinite budget is no deadline — one flow, no timer. deliver fires for
// each fully transmitted unit; done receives the delivered count, the
// (possibly estimated) time the first mustCount units took, and the total
// elapsed transmission time.
func (c *cluster) sendPlan(l link, ap atp.Plan, mustCount int, budget float64, deliver func(u int), done func(delivered int, mtaTime, elapsed float64)) {
	if len(ap.Units) == 0 {
		c.k.After(0, func() { done(0, 0, 0) })
		return
	}
	mustCount = min(mustCount, len(ap.Units))
	budget = max(budget, minBudget)
	deadline := !math.IsInf(budget, 1)
	if c.cfg.PerUnitCheckSeconds > 0 && deadline {
		c.sendPlanSequential(l, ap, mustCount, budget, deliver, done)
		return
	}
	start := c.k.Now()
	total := ap.TotalBytes()

	var timer *simnet.Timer
	var flow *simnet.Flow
	// StartFlow only schedules events; neither callback can fire until the
	// kernel processes the next event, so both captures are safe.
	flow = l.ch.StartFlow(l.dev, total, func() {
		if timer != nil {
			timer.Stop()
		}
		for _, u := range ap.Units {
			deliver(u)
		}
		elapsed := c.k.Now() - start
		mta := elapsed
		if deadline {
			// Even when the floor is the whole plan: x*y/y is not always x.
			mta = ap.MTATime(elapsed, mustCount, total)
		}
		done(len(ap.Units), mta, elapsed)
	})
	if !deadline {
		return
	}
	timer = c.k.After(budget, func() {
		sent := l.ch.Cancel(flow)
		k := ap.DeliveredCount(sent)
		for _, u := range ap.Units[:k] {
			deliver(u)
		}
		if k < mustCount {
			// Forced continuation: retransmit the discarded partial unit
			// and finish the MTA floor (Algo. 4 lines 4–7).
			remaining := ap.Prefix[mustCount] - ap.Prefix[k]
			l.ch.StartFlow(l.dev, remaining, func() {
				for _, u := range ap.Units[k:mustCount] {
					deliver(u)
				}
				elapsed := c.k.Now() - start
				done(mustCount, elapsed, elapsed)
			})
			return
		}
		done(k, ap.MTATime(budget, mustCount, sent), budget)
	})
}

// sendPlanSequential is the speculative-transmission ablation's reference
// path: a timeout judgement is inserted between every two unit
// transmissions (cost PerUnitCheckSeconds each) instead of speculating — the
// design the paper rejects in Sec. III-A for under-utilizing the channel. A
// plan without a deadline has no judgement to insert and never comes here.
func (c *cluster) sendPlanSequential(l link, ap atp.Plan, mustCount int, budget float64, deliver func(u int), done func(delivered int, mtaTime, elapsed float64)) {
	start := c.k.Now()
	mtaTime := 0.0
	var next func(i int)
	next = func(i int) {
		elapsed := c.k.Now() - start
		if i == mustCount {
			mtaTime = elapsed
		}
		if i >= len(ap.Units) || (elapsed >= budget && i >= mustCount) {
			if i < mustCount {
				mtaTime = elapsed
			}
			done(i, mtaTime, elapsed)
			return
		}
		u := ap.Units[i]
		l.ch.StartFlow(l.dev, float64(c.part.WireSize(u)), func() {
			deliver(u)
			// The inserted judgement: dead air before the next unit.
			c.k.After(c.cfg.PerUnitCheckSeconds, func() { next(i + 1) })
		})
	}
	next(0)
}
