package alloc

import (
	"math"

	"github.com/harp-rm/harp/internal/opoint"
)

// Fingerprint is a 128-bit content hash of one complete solve input: the
// platform's capacity layout, the solver configuration and — per application,
// in order — the ID, the v* override and the full operating-point table
// contents. Two inputs with equal fingerprints produce bit-identical
// allocations (the solver is deterministic in its inputs), which is what
// makes memoising whole solutions sound. 128 bits keep the accidental
// collision probability negligible at cache-realistic populations.
type Fingerprint struct {
	Hi uint64 `json:"hi"`
	Lo uint64 `json:"lo"`
}

// fpHasher accumulates two independent 64-bit lanes: lane one is FNV-1a,
// lane two a multiply-add mix with a different seed and an odd constant
// injection so the lanes decorrelate. It extends the demandKey idiom (pack
// solver-relevant content into integers) from a single demand vector to the
// whole solve input.
type fpHasher struct {
	h1, h2 uint64
}

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	fpSeed2     = 0x9e3779b97f4a7c15
)

func newFPHasher() fpHasher {
	return fpHasher{h1: fnvOffset64, h2: fpSeed2}
}

func (h *fpHasher) byte(b byte) {
	h.h1 = (h.h1 ^ uint64(b)) * fnvPrime64
	h.h2 = h.h2*fnvPrime64 + uint64(b) + fpSeed2
}

func (h *fpHasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fpHasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *fpHasher) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fpHasher) sum() Fingerprint { return Fingerprint{Hi: h.h1, Lo: h.h2} }

// tableHashEntry memoises one table's content hash at a specific mutation
// version. opoint.Table bumps its version on every Upsert/Sort/Invalidate,
// so (pointer, version) equality proves the cached hash still describes the
// table's contents — the same invariant the explorer's prediction memo rests
// on (DESIGN.md, "Pareto-cache invariant").
type tableHashEntry struct {
	version uint64
	hi, lo  uint64
	// minCost is the cheapest usable point's cost at the table's own v*
	// (0 when no point is usable — the free fallback candidate). The
	// incremental drift bound (incremental.go) sums these to judge how far
	// pinned allocations have drifted from the per-app optimum; it is a
	// heuristic trigger, so a caller-side MaxUtility override is deliberately
	// not folded in.
	minCost float64
}

// tableMemoCap bounds the table-hash memo. Tables are long-lived (one per
// session, stable pointer between mutations), so in steady state the memo
// holds one entry per managed application; the cap only matters under heavy
// session churn, where dropping the memo costs a re-hash, never correctness.
const tableMemoCap = 1024

// hashTable returns the table's 128-bit content hash, memoised per
// (pointer, version). The hash covers everything the solver reads from a
// table: identity fields, point order, vectors, utility/power and the
// measured flag — so any mutation that could change the allocation changes
// the fingerprint.
func (a *Allocator) hashTable(t *opoint.Table) (hi, lo uint64) {
	e := a.tableInfo(t)
	return e.hi, e.lo
}

// tableInfo returns the memoised (hash, minCost) entry for the table at its
// current version, computing and caching it on a version change. The memo is
// keyed by the table's process-unique ID, not its pointer: predicted tables
// are clones that all start at version 0, so under session churn a reused
// address could otherwise serve a stale entry for a different table
// (opoint.Table.ID).
func (a *Allocator) tableInfo(t *opoint.Table) tableHashEntry {
	id := t.ID()
	v := t.Version()
	if e, ok := a.tableMemo[id]; ok && e.version == v {
		return e
	}
	h := newFPHasher()
	h.str(t.App)
	h.str(t.Platform)
	h.u64(uint64(len(t.Points)))
	vstar := 0.0
	for i := range t.Points {
		p := &t.Points[i]
		h.f64(p.Utility)
		h.f64(p.Power)
		if p.Measured {
			h.byte(1)
		} else {
			h.byte(0)
		}
		h.u64(uint64(len(p.Vector.Counts)))
		for _, counts := range p.Vector.Counts {
			h.u64(uint64(len(counts)))
			for _, c := range counts {
				h.u64(uint64(c))
			}
		}
		if p.Utility > vstar {
			vstar = p.Utility
		}
	}
	// Cheapest usable point at the table's own v*, mirroring buildState's
	// usability filter; 0 when nothing is usable (fallback candidate).
	minCost := 0.0
	haveMin := false
	for i := range t.Points {
		p := &t.Points[i]
		if p.Vector.IsZero() {
			continue
		}
		c := p.Cost(vstar)
		if math.IsInf(c, 1) || math.IsNaN(c) {
			continue
		}
		if !haveMin || c < minCost {
			minCost, haveMin = c, true
		}
	}
	e := tableHashEntry{version: v, hi: h.h1, lo: h.h2, minCost: minCost}
	if a.tableMemo == nil {
		a.tableMemo = make(map[uint64]tableHashEntry)
	} else if len(a.tableMemo) >= tableMemoCap {
		clear(a.tableMemo)
	}
	a.tableMemo[id] = e
	return e
}

// fingerprintBase hashes the per-Allocator constants — platform capacity
// layout, solver method and iteration budget — once at construction. Core
// capacities live here, so a cache entry persisted under one platform can
// never be served under another; the iteration budget is a compile-time
// constant, hashed so entries persisted by a build with another budget never
// hit.
func (a *Allocator) fingerprintBase() Fingerprint {
	h := newFPHasher()
	h.str(a.plat.Name)
	h.u64(uint64(len(a.plat.Kinds)))
	for _, k := range a.plat.Kinds {
		h.str(k.Name)
		h.u64(uint64(k.Count))
		h.u64(uint64(k.SMT))
	}
	h.u64(uint64(a.method))
	h.u64(subgradientIters)
	return h.sum()
}

// fingerprintInputs hashes one solve input on top of the base Fingerprint.
// ok is false when any application is missing its table — such inputs error
// in buildState and are never cached. The hot path allocates nothing: the
// hasher lives on the stack and table hashes come from the memo.
func (a *Allocator) fingerprintInputs(apps []AppInput) (fp Fingerprint, ok bool) {
	h := fpHasher{h1: a.fpBase.Hi, h2: a.fpBase.Lo}
	h.u64(uint64(len(apps)))
	for i := range apps {
		app := &apps[i]
		if app.Table == nil {
			return Fingerprint{}, false
		}
		h.str(app.ID)
		h.f64(app.MaxUtility)
		hi, lo := a.hashTable(app.Table)
		h.u64(hi)
		h.u64(lo)
	}
	return h.sum(), true
}
