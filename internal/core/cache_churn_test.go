package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// churnMgr is one half of the lockstep pair: a Manager plus its captured
// decision stream and journal buffer.
type churnMgr struct {
	m    *Manager
	jbuf *bytes.Buffer
	dec  []Decision
}

// newChurnMgr builds one half of the pair: the default allocator (solution
// cache on) when cached, else an injected cache-less alloc.New.
func newChurnMgr(t *testing.T, p *platform.Platform, tables map[string]*opoint.Table, cached bool) *churnMgr {
	t.Helper()
	c := &churnMgr{jbuf: &bytes.Buffer{}}
	cfg := Config{
		Platform:           p,
		OfflineTables:      tables,
		DisableExploration: true,
		Journal:            telemetry.NewJournal(c.jbuf),
	}
	if !cached {
		a, err := alloc.New(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Allocator = a
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.OnDecision(func(d Decision) { c.dec = append(c.dec, d) })
	c.m = m
	return c
}

// TestCacheChurnNeverStale drives a cache-enabled Manager and a cache-disabled
// Manager through identical seeded churn — register, deregister, phase
// changes, measurement bursts, manual reallocations, and a mid-sequence
// export/import restart — and requires their decision streams to stay exactly
// equal after every operation. Any stale cache serve (a fingerprint that
// failed to change when its inputs did, or a seeded snapshot entry surviving a
// content change) diverges the streams and fails on the operation that did it.
func TestCacheChurnNeverStale(t *testing.T) {
	p := platform.OdroidXU3()
	profiles := workload.IntelApps()
	tables := make(map[string]*opoint.Table, len(profiles))
	var apps []string
	for _, prof := range profiles {
		tables[prof.Name] = offlineTable(p, prof)
		apps = append(apps, prof.Name)
	}
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cached := newChurnMgr(t, p, tables, true)
			fresh := newChurnMgr(t, p, tables, false)
			rng := rand.New(rand.NewSource(seed))
			nextID := 0
			type sess struct{ id, app string }
			var live []sess
			both := func(op string, f func(m *Manager) error) {
				t.Helper()
				if err := f(cached.m); err != nil {
					t.Fatalf("%s on cached manager: %v", op, err)
				}
				if err := f(fresh.m); err != nil {
					t.Fatalf("%s on fresh manager: %v", op, err)
				}
			}
			for op := 0; op < 50; op++ {
				switch roll := rng.Intn(10); {
				case op == 25:
					// Export/import restart churn: both managers are rebuilt
					// from their own snapshots (the cached one carrying its
					// solution cache) and every live session re-registers.
					cst, fst := cached.m.ExportState(), fresh.m.ExportState()
					if len(cst.AllocCache) == 0 {
						t.Fatalf("op %d: cached manager exported no cache entries", op)
					}
					if len(fst.AllocCache) != 0 {
						t.Fatalf("op %d: cache-disabled manager exported %d cache entries", op, len(fst.AllocCache))
					}
					cached = newChurnMgr(t, p, tables, true)
					fresh = newChurnMgr(t, p, tables, false)
					if err := cached.m.ImportState(cst, store.Recovery{}); err != nil {
						t.Fatalf("op %d: import into cached manager: %v", op, err)
					}
					if err := fresh.m.ImportState(fst, store.Recovery{}); err != nil {
						t.Fatalf("op %d: import into fresh manager: %v", op, err)
					}
					for _, s := range live {
						s := s
						both("re-Register", func(m *Manager) error {
							return m.Register(s.id, s.app, workload.Scalable, false)
						})
					}
				case (roll < 3 && len(live) < 6) || len(live) == 0: // register
					app := apps[rng.Intn(len(apps))]
					id := fmt.Sprintf("%s-%d", app, nextID)
					nextID++
					both("Register", func(m *Manager) error {
						return m.Register(id, app, workload.Scalable, false)
					})
					live = append(live, sess{id, app})
				case roll < 4 && len(live) > 1: // deregister
					i := rng.Intn(len(live))
					id := live[i].id
					both("Deregister", func(m *Manager) error { return m.Deregister(id) })
					live = append(live[:i], live[i+1:]...)
				case roll < 6: // phase change
					id := live[rng.Intn(len(live))].id
					phase := fmt.Sprintf("phase-%d", op)
					both("PhaseChange", func(m *Manager) error { return m.PhaseChange(id, phase) })
				case roll < 8: // measurement burst (may trip the cadence)
					id := live[rng.Intn(len(live))].id
					u, pw := 1+rng.Float64(), 1+rng.Float64()
					both("Measure", func(m *Manager) error {
						for i := 0; i < 30; i++ {
							if err := m.Measure(id, u, pw); err != nil {
								return err
							}
						}
						return nil
					})
				default:
					both("Reallocate", func(m *Manager) error { return m.Reallocate() })
				}
				if !reflect.DeepEqual(cached.dec, fresh.dec) {
					t.Fatalf("op %d: cached manager's decisions diverge from the cache-less manager's\ncached: %+v\nfresh:  %+v",
						op, cached.dec, fresh.dec)
				}
			}

			// The journals must agree on everything except the solve
			// bookkeeping (lambda_iters, solve_source) — and the cached run
			// must actually have exercised the cache.
			crecs, err := telemetry.ReadJournal(bytes.NewReader(cached.jbuf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			frecs, err := telemetry.ReadJournal(bytes.NewReader(fresh.jbuf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(crecs) != len(frecs) {
				t.Fatalf("journal length diverges: cached %d epochs, fresh %d", len(crecs), len(frecs))
			}
			var hits int
			for i := range crecs {
				c, f := crecs[i], frecs[i]
				if c.SolveSource == "cached" {
					hits++
				}
				if f.SolveSource == "cached" {
					t.Fatalf("epoch %d: cache-disabled manager reports a cached solve", f.Epoch)
				}
				c.LambdaIters, f.LambdaIters = 0, 0
				c.SolveSource, f.SolveSource = "", ""
				if !reflect.DeepEqual(c, f) {
					t.Fatalf("epoch %d diverges beyond solve bookkeeping:\ncached: %+v\nfresh:  %+v", c.Epoch, c, f)
				}
			}
			if hits == 0 {
				t.Fatal("churn sequence never hit the cache — the test is not exercising it")
			}
			cs := cached.m.AllocCacheStats()
			if cs.Hits == 0 {
				t.Fatalf("cache stats report no hits after churn: %+v", cs)
			}
			if fcs := fresh.m.AllocCacheStats(); fcs.Cap != 0 {
				t.Fatalf("cache-disabled manager reports a cache: %+v", fcs)
			}
		})
	}
}
