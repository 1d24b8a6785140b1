// Package opoint implements HARP's operating points (§4.1.2): the central
// data structure linking the resource manager and libharp. An operating
// point couples an extended resource vector with the instant non-functional
// characteristics HARP optimises on — utility (IPS or an app-specific
// metric) and power — and carries the energy-utility cost ζ used by the
// allocation problem (Eq. 1, Eq. 2).
package opoint

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/harp-rm/harp/internal/platform"
)

// OperatingPoint is one configuration variant of an application.
type OperatingPoint struct {
	// Vector is the coarse-grained extended resource vector.
	Vector platform.ResourceVector `json:"vector"`
	// Utility is the instant useful-work metric o[v] (IPS by default).
	Utility float64 `json:"utility"`
	// Power is the CPU power o[p] attributed to the application in watts.
	Power float64 `json:"power"`
	// Measured distinguishes measured points from regression-predicted ones
	// during runtime exploration (§5).
	Measured bool `json:"measured,omitempty"`
	// Samples counts the measurements folded into Utility/Power.
	Samples int `json:"samples,omitempty"`
}

// Cost returns the energy-utility cost ζ of the point (Eq. 2):
// ζ = (p / v̂) · (1 / v̂) with v̂ = v / v*, the utility normalised by the
// application's maximum observed utility. Lower is better. A non-positive
// utility yields +Inf (the point does no useful work), as does a
// non-positive power (no real configuration draws zero power; such values
// are measurement or prediction artefacts and must not win the
// minimisation).
func (o OperatingPoint) Cost(maxUtility float64) float64 {
	if o.Utility <= 0 || maxUtility <= 0 || o.Power <= 0 {
		return math.Inf(1)
	}
	vhat := o.Utility / maxUtility
	return o.Power / (vhat * vhat)
}

// Table is an application's set of operating points.
//
// The table memoises derived data (the runtime Pareto front, v*, validation)
// because the allocator re-derives them on every reallocation — the dominant
// cost of a simulated HARP run. All mutations must go through Upsert/Sort, or
// call Invalidate after modifying Points directly; see DESIGN.md
// ("Pareto-cache invariant"). Tables must not be mutated while another
// goroutine reads them, but concurrent read-only use (including ParetoPoints)
// is safe.
type Table struct {
	// App names the application the table belongs to.
	App string `json:"app"`
	// Platform names the hardware the characteristics were collected on.
	Platform string `json:"platform"`
	// Points holds the operating points in no particular order.
	Points []OperatingPoint `json:"points"`

	// mu guards the memoised derived state below.
	mu sync.Mutex
	// id is the table's process-unique identity, assigned lazily by ID().
	id uint64
	// version counts mutations; derived caches are keyed on it.
	version uint64
	// front is the cached runtime Pareto front; frontLen detects direct
	// appends to Points that bypassed Upsert/Invalidate.
	front    []OperatingPoint
	frontOK  bool
	frontLen int
	// maxUtility caches MaxUtility.
	maxUtility    float64
	maxUtilityOK  bool
	maxUtilityLen int
	// validatedFor remembers the platform name the table last validated
	// cleanly against.
	validatedFor string
	validatedOK  bool
	validatedLen int
}

// Invalidate drops every memoised derived value. Callers that modify Points
// directly (rather than through Upsert) must call it before the next
// ParetoPoints/MaxUtility/Validate, otherwise stale caches may be served.
// Length changes are detected automatically; in-place edits are not.
func (t *Table) Invalidate() {
	t.mu.Lock()
	t.bumpLocked()
	t.mu.Unlock()
}

// bumpLocked invalidates all caches; t.mu must be held.
func (t *Table) bumpLocked() {
	t.version++
	t.frontOK = false
	t.maxUtilityOK = false
	t.validatedOK = false
}

// Version returns the table's mutation counter — callers (e.g. the runtime
// explorer) use it to memoise their own derived structures.
func (t *Table) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// tableIDs hands out process-unique table identities; see ID.
var tableIDs atomic.Uint64

// ID returns a process-unique identity for the table, assigned on first
// call. Derived caches outside the table (the allocator's fingerprint memo)
// key on it instead of the pointer: a *Table key can be poisoned when a
// freed table's address is reused by a new table at the same version —
// clones in particular all restart at version 0, so under session churn
// (predicted tables being rebuilt and dropped every epoch) a pointer key
// validated only by version may serve a stale entry for a different table. Identities are never reused, so an ID
// hit is always the same table. Clones do not inherit the ID.
func (t *Table) ID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.id == 0 {
		t.id = tableIDs.Add(1)
	}
	return t.id
}

// Validate checks the table against a platform description. A clean result
// is memoised per platform name until the table changes.
func (t *Table) Validate(p *platform.Platform) error {
	if t.App == "" {
		return errors.New("opoint: table without application name")
	}
	t.mu.Lock()
	if t.validatedOK && t.validatedFor == p.Name && t.validatedLen == len(t.Points) {
		t.mu.Unlock()
		return nil
	}
	t.mu.Unlock()
	for i, op := range t.Points {
		if err := op.Vector.Validate(p); err != nil {
			return fmt.Errorf("opoint: %s point %d: %w", t.App, i, err)
		}
		if math.IsNaN(op.Utility) || math.IsNaN(op.Power) || op.Power < 0 {
			return fmt.Errorf("opoint: %s point %d: bad characteristics (v=%g, p=%g)",
				t.App, i, op.Utility, op.Power)
		}
	}
	t.mu.Lock()
	t.validatedOK = true
	t.validatedFor = p.Name
	t.validatedLen = len(t.Points)
	t.mu.Unlock()
	return nil
}

// MaxUtility returns v*, the maximum utility across the table (0 if empty).
func (t *Table) MaxUtility() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.maxUtilityOK && t.maxUtilityLen == len(t.Points) {
		return t.maxUtility
	}
	var max float64
	for _, op := range t.Points {
		if op.Utility > max {
			max = op.Utility
		}
	}
	t.maxUtility = max
	t.maxUtilityOK = true
	t.maxUtilityLen = len(t.Points)
	return max
}

// Lookup returns the point with the given resource vector, if present.
func (t *Table) Lookup(rv platform.ResourceVector) (OperatingPoint, bool) {
	for _, op := range t.Points {
		if op.Vector.Equal(rv) {
			return op, true
		}
	}
	return OperatingPoint{}, false
}

// Upsert inserts the point or replaces an existing one with the same vector.
func (t *Table) Upsert(op OperatingPoint) {
	defer t.Invalidate()
	for i := range t.Points {
		if t.Points[i].Vector.Equal(op.Vector) {
			t.Points[i] = op
			return
		}
	}
	t.Points = append(t.Points, op)
}

// MeasuredCount returns the number of measured (not predicted) points.
func (t *Table) MeasuredCount() int {
	var n int
	for _, op := range t.Points {
		if op.Measured {
			n++
		}
	}
	return n
}

// Sort orders points deterministically by vector key. Order matters to the
// memoised Pareto front (duplicate-objective ties keep the earliest point),
// so sorting invalidates the caches.
func (t *Table) Sort() {
	sort.Slice(t.Points, func(i, j int) bool {
		return t.Points[i].Vector.Key() < t.Points[j].Vector.Key()
	})
	t.Invalidate()
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := &Table{App: t.App, Platform: t.Platform, Points: make([]OperatingPoint, len(t.Points))}
	for i, op := range t.Points {
		op.Vector = op.Vector.Clone()
		out.Points[i] = op
	}
	return out
}

// Pareto returns the subset of xs that is Pareto-optimal under the given
// objectives, all minimised. A point is kept unless another point is no
// worse in every objective and strictly better in at least one; duplicated
// objective rows keep a single representative.
//
// Implementation: points are processed in lexicographic objective order. Any
// dominator of a point precedes it in that order, and by transitivity a
// non-dominated dominator exists on the running front, so each point only
// needs to be checked against the (small) front built so far. This is the
// allocator's hot path — tables can hold hundreds of points per application.
func Pareto[T any](xs []T, objectives func(T) []float64) []T {
	if len(xs) == 0 {
		return nil
	}
	type entry struct {
		obj []float64
		idx int
	}
	entries := make([]entry, len(xs))
	for i, x := range xs {
		entries[i] = entry{obj: objectives(x), idx: i}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].obj, entries[j].obj
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return entries[i].idx < entries[j].idx
	})

	var front []entry
	for _, e := range entries {
		dominated := false
		for _, f := range front {
			if d := dominanceOf(f.obj, e.obj); d == strictlyDominates || d == equalObjectives {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, e)
		}
	}
	out := make([]T, len(front))
	for i, f := range front {
		out[i] = xs[f.idx]
	}
	return out
}

type dominance int

const (
	noDominance dominance = iota
	strictlyDominates
	equalObjectives
)

// dominanceOf reports how a relates to b for minimisation objectives.
func dominanceOf(a, b []float64) dominance {
	allLEQ := true
	anyLT := false
	allEQ := true
	for k := range a {
		if a[k] > b[k] {
			allLEQ = false
		}
		if a[k] < b[k] {
			anyLT = true
		}
		if a[k] != b[k] {
			allEQ = false
		}
	}
	switch {
	case allLEQ && anyLT:
		return strictlyDominates
	case allEQ:
		return equalObjectives
	default:
		return noDominance
	}
}

// RuntimeObjectives is the objective extractor used by the runtime allocator
// (§4.2.2): minimise power, maximise utility (negated), and minimise the
// per-kind core footprint.
func RuntimeObjectives(op OperatingPoint) []float64 {
	demand := op.Vector.CoreDemand()
	objs := make([]float64, 0, 2+len(demand))
	objs = append(objs, -op.Utility, op.Power)
	for _, d := range demand {
		objs = append(objs, float64(d))
	}
	return objs
}

// ParetoPoints filters the table down to its runtime Pareto front. The front
// is memoised until the table changes; callers must treat the returned slice
// as read-only (the allocator and harpctl only iterate it).
func (t *Table) ParetoPoints() []OperatingPoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frontOK && t.frontLen == len(t.Points) {
		return t.front
	}
	t.front = Pareto(t.Points, RuntimeObjectives)
	t.frontOK = true
	t.frontLen = len(t.Points)
	return t.front
}
