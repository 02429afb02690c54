package atp

// Plan is one ordered speculative transmission: the ranked unit sequence
// and its cumulative wire sizes. Both runtimes share it — the simnet
// drivers read delivered units off a flow's byte count when the budget
// timer fires, and the live worker uses the same prefix sums to apportion
// its measured transmission time to the MTA floor.
type Plan struct {
	Units []int
	// Prefix[i] is the wire size of Units[:i]; len(Prefix) == len(Units)+1.
	Prefix []float64
}

// NewPlan builds the prefix sums for units under the given per-unit wire
// size.
func NewPlan(units []int, size func(u int) float64) Plan {
	return PlanInto(nil, units, size)
}

// PlanInto is NewPlan with the prefix sums built in prefix's storage (grown
// when too short). The plan aliases it: the caller keeps prefix untouched
// until the plan's transmission has ended, then passes p.Prefix back in.
func PlanInto(prefix []float64, units []int, size func(u int) float64) Plan {
	if cap(prefix) <= len(units) {
		prefix = make([]float64, 0, len(units)+1)
	}
	prefix = append(prefix[:0], 0)
	for _, u := range units {
		prefix = append(prefix, prefix[len(prefix)-1]+size(u))
	}
	return Plan{Units: units, Prefix: prefix}
}

// TotalBytes is the wire size of the whole plan.
func (p Plan) TotalBytes() float64 { return p.Prefix[len(p.Units)] }

// DeliveredCount maps bytes-on-the-wire to fully transmitted units: the
// in-flight unit at a timeout is discarded, exactly the speculative-
// transmission cost of Sec. III-A. The epsilon absorbs float drift so a
// unit whose last byte arrived exactly at the deadline still counts.
func (p Plan) DeliveredCount(bytes float64) int {
	k := 0
	for k < len(p.Units) && p.Prefix[k+1] <= bytes+1e-9 {
		k++
	}
	return k
}
