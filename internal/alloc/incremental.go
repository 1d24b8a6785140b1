package alloc

// Incremental re-solves: the churn-scale answer to "one session changed, why
// re-optimise all N?". The Allocator pins every application's standing
// allocation after a successful solve (fingerprinted per table version, the
// PR 6 machinery). When the next solve's inputs differ only in a small
// changed set — new applications, departed ones, tables whose content hash
// moved — the unchanged applications stay pinned at their standing
// allocations and only the changed set, plus a bounded neighbourhood of
// co-allocated pins that might now fit in isolation, is re-optimised against
// the residual capacity the pins leave free.
//
// Guard rails keep the merged solution honest:
//
//   - a full solve runs on cadence (every DefaultIncrementalFullEvery
//     accepted merges), so pinned decisions cannot age indefinitely;
//   - a drift bound compares the merged solution's cost slack (chosen cost
//     over per-app minimum cost) against the last full solve's baseline and
//     falls back to a full solve when it degrades past
//     DefaultIncrementalDriftBound;
//   - a changed set larger than half the input falls through to the full
//     pipeline, which is cheaper at that point;
//   - any internal inconsistency (negative residual, pin/grant mismatch)
//     falls back to the full pipeline instead of erroring.
//
// Incremental results are deliberately NOT written to the solution cache:
// cache entries stay pure full-pipeline outputs, so a cache hit never
// depends on pin history. Like warm starts, incremental solving trades
// bit-identical cold-solve equivalence for latency and is therefore opt-in;
// every merged solution still satisfies the structural invariants
// (check.CheckAllocations) because pins are fragments of previously valid
// solutions and the re-solve only consumes capacity the pins left free.

import (
	"math"
	"slices"

	"github.com/harp-rm/harp/internal/platform"
)

const (
	// DefaultIncrementalFullEvery is the full-solve cadence: after this many
	// accepted incremental merges the next solve runs the full pipeline.
	DefaultIncrementalFullEvery = 64
	// DefaultIncrementalDriftBound bounds the merged solution's cost-slack
	// ratio relative to the last full solve's baseline; beyond it the epoch
	// falls back to a full solve.
	DefaultIncrementalDriftBound = 1.25
	// incNeighbourhood is how many pinned co-allocated applications join each
	// incremental re-solve: the likeliest candidates to be lifted back into
	// spatial isolation when a change freed capacity.
	incNeighbourhood = 8
)

// WithIncremental enables incremental re-solves (default off). Incremental
// results depend on solve history (which applications were pinned where), so
// they are not bit-identical to cold solves — the same opt-in contract as
// WithWarmStart. Runs that need exact cold-solve reproducibility leave it
// off.
func WithIncremental(on bool) Option {
	return optionFunc(func(a *Allocator) { a.inc = on })
}

// pinnedApp is one application's standing allocation with everything needed
// to detect change, free its capacity and account drift without touching its
// table.
type pinnedApp struct {
	// tableHi/tableLo and maxUtility identify the inputs the pin was solved
	// under; any difference marks the application as changed.
	tableHi, tableLo uint64
	maxUtility       float64
	// alloc is the standing allocation (grants owned by the pin).
	alloc Allocation
	// demand is the per-kind isolated core demand (nil for co-allocated
	// pins, which hold no exclusive capacity).
	demand []int
	// chosenCost and minCost feed the drift bound.
	chosenCost float64
	minCost    float64
}

// tryIncremental attempts the incremental path for one solve. ok reports
// whether the merged solution should be returned; ok=false with a nil error
// means "run the full pipeline" (ineligible, cadence, drift, oversized
// changed set or an internal inconsistency).
func (a *Allocator) tryIncremental(apps []AppInput, capacity []int) ([]Allocation, Stats, bool, error) {
	if !a.inc || len(a.incPins) == 0 || a.incSinceFull >= a.incFullEvery {
		return nil, Stats{}, false, nil
	}
	nk := len(capacity)

	// Pass 1: which inputs changed since they were pinned?
	inResolve := make([]bool, len(apps))
	resolveIdx := make([]int, 0, 16)
	for i := range apps {
		app := &apps[i]
		if app.Table == nil {
			return nil, Stats{}, false, nil // full path reports the error
		}
		pin, ok := a.incPins[app.ID]
		if ok {
			hi, lo := a.hashTable(app.Table)
			if hi == pin.tableHi && lo == pin.tableLo && app.MaxUtility == pin.maxUtility {
				continue
			}
		}
		inResolve[i] = true
		resolveIdx = append(resolveIdx, i)
	}

	// Pass 2: bounded neighbourhood — the first few pinned co-allocated
	// applications join the re-solve. They hold no exclusive capacity, so
	// re-solving them can only lift them toward isolation when the change
	// (or a departure) freed cores.
	budget := incNeighbourhood
	for i := range apps {
		if budget == 0 {
			break
		}
		if inResolve[i] {
			continue
		}
		if pin := a.incPins[apps[i].ID]; pin.alloc.CoAllocated {
			inResolve[i] = true
			resolveIdx = append(resolveIdx, i)
			budget--
		}
	}
	slices.Sort(resolveIdx)

	if 2*len(resolveIdx) > len(apps) {
		return nil, Stats{}, false, nil // full pipeline is cheaper from here
	}

	// Residual capacity and the concrete free cores the pins leave behind.
	residual := make([]int, nk)
	copy(residual, capacity)
	pinnedCores := make(map[int]bool)
	for i := range apps {
		if inResolve[i] {
			continue
		}
		pin := a.incPins[apps[i].ID]
		if pin.alloc.CoAllocated {
			continue
		}
		for k, d := range pin.demand {
			residual[k] -= d
		}
		for _, g := range pin.alloc.Grants {
			pinnedCores[g.Core] = true
		}
	}
	avail := make([][]int, nk)
	for k := range a.plat.Kinds {
		if residual[k] < 0 {
			return nil, Stats{}, false, nil // pins no longer fit; full solve
		}
		lo, hi := a.plat.CoreRange(platform.KindID(k))
		for c := lo; c < hi; c++ {
			if !pinnedCores[c] {
				avail[k] = append(avail[k], c)
			}
		}
		if len(avail[k]) != residual[k] {
			return nil, Stats{}, false, nil // pin accounting disagrees; full solve
		}
	}

	// Re-solve the changed set against the residual capacity.
	states := a.scratch.ensureStates(len(resolveIdx))
	cands := 0
	for ri, i := range resolveIdx {
		if err := a.buildState(states[ri], apps[i]); err != nil {
			return nil, Stats{}, false, err
		}
		cands += len(states[ri].cands)
	}
	var iters int
	var solved []Allocation
	if len(resolveIdx) > 0 {
		iters = a.selectPoints(states, residual, nil)
		a.refine(states, residual)
		var err error
		solved, err = a.assignCoresAvail(states, avail)
		if err != nil {
			return nil, Stats{}, false, nil // inconsistent; full solve recovers
		}
	}

	// Merge in input order (the CheckAllocations contract) and measure the
	// merged solution's cost slack for the drift bound.
	out := make([]Allocation, len(apps))
	var chosenSum, minSum float64
	ri := 0
	for i := range apps {
		if inResolve[i] {
			out[i] = solved[ri]
			st := states[ri]
			chosenSum += st.cands[st.chosen].cost
			minSum += a.tableInfo(apps[i].Table).minCost
			ri++
			continue
		}
		pin := a.incPins[apps[i].ID]
		out[i] = pin.alloc
		chosenSum += pin.chosenCost
		minSum += pin.minCost
	}
	slack := (1 + chosenSum) / (1 + minSum)
	if a.incHaveBase && slack > DefaultIncrementalDriftBound*a.incBaseSlack+1e-9 {
		return nil, Stats{}, false, nil // drifted past the bound; full solve
	}

	for ri, i := range resolveIdx {
		st := states[ri]
		a.setPin(&apps[i], out[i], st.cands[st.chosen].cost)
	}
	a.prunePins(apps)
	a.incSinceFull++

	stats := Stats{
		Apps:        len(apps),
		Candidates:  cands,
		LambdaIters: iters,
		Source:      SourceIncremental,
		Pinned:      len(apps) - len(resolveIdx),
		Resolved:    len(resolveIdx),
	}
	for i := range out {
		if out[i].CoAllocated {
			stats.CoAllocated++
		}
	}
	return out, stats, true, nil
}

// rememberFullSolve re-pins every application at the full solve's (or cache
// hit's) allocations and re-anchors the drift baseline and the full-solve
// cadence. A no-op unless incremental solving is enabled.
func (a *Allocator) rememberFullSolve(apps []AppInput, allocs []Allocation) {
	if !a.inc || len(allocs) != len(apps) {
		return
	}
	if a.incPins == nil {
		a.incPins = make(map[string]*pinnedApp, len(apps))
	}
	var chosenSum, minSum float64
	for i := range apps {
		cost := a.chosenCostOf(&apps[i], &allocs[i])
		a.setPin(&apps[i], allocs[i], cost)
		chosenSum += cost
		minSum += a.incPins[apps[i].ID].minCost
	}
	a.prunePins(apps)
	a.incSinceFull = 0
	a.incBaseSlack = (1 + chosenSum) / (1 + minSum)
	a.incHaveBase = true
}

// chosenCostOf recomputes an allocation's cost under the app's v* (0 for
// unusable points such as the free fallback candidate, mirroring
// buildState).
func (a *Allocator) chosenCostOf(app *AppInput, al *Allocation) float64 {
	vstar := app.MaxUtility
	if vstar <= 0 {
		vstar = app.Table.MaxUtility()
	}
	c := al.Point.Cost(vstar)
	if math.IsInf(c, 0) || math.IsNaN(c) {
		return 0
	}
	return c
}

// setPin records one application's standing allocation. Grants are cloned so
// pins never alias the solution cache or solver scratch.
func (a *Allocator) setPin(app *AppInput, al Allocation, chosenCost float64) {
	info := a.tableInfo(app.Table)
	pin := a.incPins[app.ID]
	if pin == nil {
		pin = &pinnedApp{}
		a.incPins[app.ID] = pin
	}
	pin.tableHi, pin.tableLo = info.hi, info.lo
	pin.maxUtility = app.MaxUtility
	pin.minCost = info.minCost
	pin.chosenCost = chosenCost
	pin.alloc = Allocation{
		ID:          al.ID,
		Point:       al.Point,
		Grants:      append([]CoreGrant(nil), al.Grants...),
		CoAllocated: al.CoAllocated,
	}
	if al.CoAllocated {
		pin.demand = nil
	} else {
		pin.demand = al.Point.Vector.CoreDemand()
	}
}

// prunePins drops pins for departed applications once the map outgrows the
// live population — departed pins are unreachable (lookups go by current
// input IDs), so this is memory hygiene under session churn, not
// correctness.
func (a *Allocator) prunePins(apps []AppInput) {
	if len(a.incPins) <= 2*len(apps)+16 {
		return
	}
	keep := make(map[string]bool, len(apps))
	for i := range apps {
		keep[apps[i].ID] = true
	}
	for id := range a.incPins {
		if !keep[id] {
			delete(a.incPins, id)
		}
	}
}
