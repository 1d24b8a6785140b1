// Command harp-bench measures the allocator's solve regimes — cold
// Lagrangian, greedy ablation, fingerprint-cache hit and warm-started — on
// the production-scale 5-application Raptor Lake workload and writes the
// results as JSON (see PERFORMANCE.md for the methodology).
//
// With -enforce it exits non-zero when a performance contract regresses:
// the cache-hit path must stay at 0 allocs/op and at least 10× faster than a
// cold solve, and warm starts must not cost λ iterations. CI runs this on
// every push via `make bench`.
//
// Usage:
//
//	harp-bench -out BENCH_alloc.json
//	harp-bench -enforce            # CI contract check, writes nothing extra
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/faultsim"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/workload"
)

// Regime is one measured solve regime.
type Regime struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// LambdaIters is the subgradient iteration count of one representative
	// solve in this regime (0 for greedy and cache hits).
	LambdaIters int `json:"lambda_iters,omitempty"`
}

// Report is the BENCH_alloc.json schema.
type Report struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	// Workload identifies the measured instance: full operating-point
	// tables for five NAS applications on the Intel platform.
	Platform    string `json:"platform"`
	Apps        int    `json:"apps"`
	TablePoints int    `json:"table_points"`

	Regimes map[string]Regime `json:"regimes"`

	// SpeedupColdOverHit is cold ns/op divided by cache-hit ns/op.
	SpeedupColdOverHit float64 `json:"speedup_cold_over_hit"`
	// SteadyStateHitRate is the cache hit rate over a simulated 200-epoch
	// run whose inputs change every 10th epoch — the RM's steady state.
	SteadyStateHitRate float64 `json:"steady_state_hit_rate"`
	// WarmColdIters / WarmIters sum λ iterations over the same 50 perturbed
	// epochs solved cold and warm-started; SavedPct is the reduction.
	WarmColdIters int     `json:"warm_cold_iters"`
	WarmIters     int     `json:"warm_iters"`
	WarmSavedPct  float64 `json:"warm_saved_pct"`

	// Churn is the open-loop 10k-session churn benchmark (harpsim.RunChurn):
	// coalesced epochs + incremental re-solves against the 50 ms
	// adaptation-tick budget, plus a smaller solve-per-event baseline for the
	// epochs-vs-events comparison.
	Churn *ChurnReport `json:"churn,omitempty"`

	// Cluster is the fleet benchmark (harpsim.RunCluster): a faulted
	// coordinated fleet against static partitioning of the same budget,
	// with the budget, re-home and energy contracts enforced by -enforce.
	Cluster *ClusterReport `json:"cluster,omitempty"`
}

// ChurnReport is the churn section of BENCH_alloc.json.
type ChurnReport struct {
	Sessions     int            `json:"sessions"`
	Ticks        int            `json:"ticks"`
	Events       int            `json:"events"`
	Epochs       int            `json:"epochs"`
	P50Ms        float64        `json:"p50_ms"`
	P99Ms        float64        `json:"p99_ms"`
	MaxMs        float64        `json:"max_ms"`
	TickBudgetMs float64        `json:"tick_budget_ms"`
	SolveSources map[string]int `json:"solve_sources"`
	// Checked counts epochs that passed check.CheckAllocations
	// (feasibility and grant invariants, not the exact MMKP oracle).
	Checked int `json:"structurally_checked"`

	// Baseline is the historical solve-per-event behaviour at a smaller
	// population (running it at 10k would take minutes by construction).
	BaselineSessions int     `json:"baseline_sessions"`
	BaselineEvents   int     `json:"baseline_events"`
	BaselineEpochs   int     `json:"baseline_epochs"`
	BaselineP99Ms    float64 `json:"baseline_p99_ms"`
}

// ClusterReport is the fleet section of BENCH_alloc.json. The dynamic run
// carries a machine kill and a coordinator kill; the static run is the
// same churn stream under per-machine partitioning.
type ClusterReport struct {
	Machines     int     `json:"machines"`
	Sessions     int     `json:"sessions"`
	Ticks        int     `json:"ticks"`
	FleetBudgetW float64 `json:"fleet_budget_w"`

	EnergyDynamicJ float64 `json:"energy_dynamic_j"`
	EnergyStaticJ  float64 `json:"energy_static_j"`
	EnergySavedPct float64 `json:"energy_saved_pct"`

	MaxFleetPowerW  float64 `json:"max_fleet_power_w"`
	Migrations      int     `json:"migrations"`
	MachineDeaths   int     `json:"machine_deaths"`
	Failovers       int     `json:"failovers"`
	MaxUnownedTicks int     `json:"max_unowned_ticks"`
	FinalUnowned    int     `json:"final_unowned"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "harp-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("harp-bench", flag.ContinueOnError)
	var (
		outPath = fs.String("out", "", "write the JSON report to this file (default: stdout)")
		enforce = fs.Bool("enforce", false, "exit non-zero when a performance contract regresses")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	plat, inputs := benchWorkload()
	rep := &Report{
		GeneratedBy: "harp-bench",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Platform:    plat.Name,
		Apps:        len(inputs),
		TablePoints: len(inputs[0].Table.Points),
		Regimes:     make(map[string]Regime),
	}

	cold, err := measureCold(plat, inputs, alloc.Lagrangian)
	if err != nil {
		return err
	}
	rep.Regimes["cold_lagrangian"] = cold
	greedy, err := measureCold(plat, inputs, alloc.Greedy)
	if err != nil {
		return err
	}
	rep.Regimes["greedy"] = greedy
	hit, err := measureCacheHit(plat, inputs)
	if err != nil {
		return err
	}
	rep.Regimes["cache_hit"] = hit
	warm, err := measureWarmStart(plat, inputs)
	if err != nil {
		return err
	}
	rep.Regimes["warm_start"] = warm

	if hit.NsPerOp > 0 {
		rep.SpeedupColdOverHit = cold.NsPerOp / hit.NsPerOp
	}
	if rep.SteadyStateHitRate, err = steadyStateHitRate(plat, inputs); err != nil {
		return err
	}
	if rep.WarmColdIters, rep.WarmIters, err = warmIterSums(plat, inputs); err != nil {
		return err
	}
	if rep.WarmColdIters > 0 {
		rep.WarmSavedPct = 100 * (1 - float64(rep.WarmIters)/float64(rep.WarmColdIters))
	}
	if rep.Churn, err = measureChurn(); err != nil {
		return err
	}
	if rep.Cluster, err = measureCluster(); err != nil {
		return err
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "harp-bench: wrote %s\n", *outPath)
	} else {
		out.Write(raw)
	}

	if *enforce {
		return checkContracts(rep)
	}
	return nil
}

// checkContracts enforces the performance acceptance criteria (the CI gate).
func checkContracts(rep *Report) error {
	var errs []string
	if a := rep.Regimes["cache_hit"].AllocsPerOp; a != 0 {
		errs = append(errs, fmt.Sprintf("cache-hit solve allocates %d times per op, contract is 0", a))
	}
	if rep.SpeedupColdOverHit < 10 {
		errs = append(errs, fmt.Sprintf("cache-hit speedup %.1fx, contract is >= 10x", rep.SpeedupColdOverHit))
	}
	if rep.WarmIters > rep.WarmColdIters {
		errs = append(errs, fmt.Sprintf("warm starts cost iterations: %d warm vs %d cold", rep.WarmIters, rep.WarmColdIters))
	}
	if c := rep.Churn; c != nil {
		if c.P99Ms >= c.TickBudgetMs {
			errs = append(errs, fmt.Sprintf("churn p99 epoch latency %.1f ms breaches the %.0f ms tick budget at %d sessions",
				c.P99Ms, c.TickBudgetMs, c.Sessions))
		}
		if c.Epochs*4 > c.Events {
			errs = append(errs, fmt.Sprintf("coalescing ineffective: %d epochs for %d events", c.Epochs, c.Events))
		}
		if c.Checked == 0 {
			errs = append(errs, "no churn epochs were structurally checked")
		}
	}
	if cl := rep.Cluster; cl != nil {
		if cl.MaxFleetPowerW > cl.FleetBudgetW+1e-6 {
			errs = append(errs, fmt.Sprintf("fleet power peaked at %.1f W over the %.1f W budget", cl.MaxFleetPowerW, cl.FleetBudgetW))
		}
		if cl.EnergyDynamicJ >= cl.EnergyStaticJ {
			errs = append(errs, fmt.Sprintf("coordinated fleet energy %.1f J >= static partitioning %.1f J", cl.EnergyDynamicJ, cl.EnergyStaticJ))
		}
		if cl.MaxUnownedTicks > 10 {
			errs = append(errs, fmt.Sprintf("re-home after a kill took %d ticks, contract is <= 10", cl.MaxUnownedTicks))
		}
		if cl.FinalUnowned != 0 {
			errs = append(errs, fmt.Sprintf("%d sessions still unowned after the chaos run", cl.FinalUnowned))
		}
		if cl.MachineDeaths == 0 || cl.Failovers == 0 {
			errs = append(errs, "cluster benchmark injected no effective faults")
		}
	}
	if len(errs) == 0 {
		return nil
	}
	msg := "performance contract regressed:"
	for _, e := range errs {
		msg += "\n  - " + e
	}
	return fmt.Errorf("%s", msg)
}

// benchWorkload mirrors the internal/alloc benchmark fixture: five NAS
// applications with full design-space tables on Raptor Lake.
func benchWorkload() (*platform.Platform, []alloc.AppInput) {
	plat := platform.RaptorLake()
	names := []string{"ep.C", "mg.C", "cg.C", "ft.C", "sp.C"}
	var inputs []alloc.AppInput
	for _, name := range names {
		prof, err := workload.ByName(workload.IntelApps(), name)
		if err != nil {
			panic(err)
		}
		tbl := &opoint.Table{App: name, Platform: plat.Name}
		for _, rv := range platform.EnumerateVectors(plat, 0) {
			ev := workload.EvaluateVector(plat, prof, rv)
			tbl.Upsert(opoint.OperatingPoint{Vector: rv, Utility: ev.Utility, Power: ev.PowerWatts, Measured: true})
		}
		inputs = append(inputs, alloc.AppInput{ID: name, Table: tbl})
	}
	return plat, inputs
}

// perturb nudges one table point, flipping direction so the content cycles
// between two variants — every solve is a guaranteed cache miss.
func perturb(inputs []alloc.AppInput, up bool) {
	pt := inputs[0].Table.Points[0]
	if up {
		pt.Utility *= 1.01
	} else {
		pt.Utility /= 1.01
	}
	inputs[0].Table.Upsert(pt)
	inputs[0].Table.ParetoPoints() // rebuild the memo outside any timing
}

func measureCold(plat *platform.Platform, inputs []alloc.AppInput, m alloc.Method) (Regime, error) {
	a, err := alloc.New(plat, alloc.WithMethod(m))
	if err != nil {
		return Regime{}, err
	}
	_, st, err := a.AllocateWithStats(inputs)
	if err != nil {
		return Regime{}, err
	}
	iters := st.LambdaIters
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := a.Allocate(inputs); err != nil {
				b.Fatal(err)
			}
		}
	})
	return regimeOf(res, iters), nil
}

func measureCacheHit(plat *platform.Platform, inputs []alloc.AppInput) (Regime, error) {
	a, err := alloc.New(plat, alloc.WithCache(alloc.DefaultCacheSize))
	if err != nil {
		return Regime{}, err
	}
	if _, _, err := a.AllocateWithStats(inputs); err != nil { // fill
		return Regime{}, err
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, st, err := a.AllocateWithStats(inputs)
			if err != nil {
				b.Fatal(err)
			}
			if st.Source != alloc.SourceCached {
				b.Fatalf("solve source = %q, want %q", st.Source, alloc.SourceCached)
			}
		}
	})
	return regimeOf(res, 0), nil
}

func measureWarmStart(plat *platform.Platform, inputs []alloc.AppInput) (Regime, error) {
	a, err := alloc.New(plat, alloc.WithWarmStart(true))
	if err != nil {
		return Regime{}, err
	}
	if _, _, err := a.AllocateWithStats(inputs); err != nil { // establish λ
		return Regime{}, err
	}
	var iters int
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			perturb(inputs, i%2 == 0)
			b.StartTimer()
			_, st, err := a.AllocateWithStats(inputs)
			if err != nil {
				b.Fatal(err)
			}
			if st.Source != alloc.SourceWarm {
				b.Fatalf("solve source = %q, want %q", st.Source, alloc.SourceWarm)
			}
			iters = st.LambdaIters
		}
	})
	return regimeOf(res, iters), nil
}

// steadyStateHitRate replays a 200-epoch cadence whose inputs change every
// 10th epoch — the shape of an RM at steady state — and returns the cache
// hit rate.
func steadyStateHitRate(plat *platform.Platform, inputs []alloc.AppInput) (float64, error) {
	a, err := alloc.New(plat, alloc.WithCache(alloc.DefaultCacheSize))
	if err != nil {
		return 0, err
	}
	for epoch := 0; epoch < 200; epoch++ {
		if epoch%10 == 0 {
			perturb(inputs, (epoch/10)%2 == 0)
		}
		if _, _, err := a.AllocateWithStats(inputs); err != nil {
			return 0, err
		}
	}
	return a.CacheStats().HitRate(), nil
}

// warmIterSums solves the same 50 perturbed epochs cold and warm-started and
// returns the summed λ iteration counts.
func warmIterSums(plat *platform.Platform, inputs []alloc.AppInput) (cold, warm int, err error) {
	ca, err := alloc.New(plat)
	if err != nil {
		return 0, 0, err
	}
	wa, err := alloc.New(plat, alloc.WithWarmStart(true))
	if err != nil {
		return 0, 0, err
	}
	if _, _, err := wa.AllocateWithStats(inputs); err != nil { // establish λ
		return 0, 0, err
	}
	for epoch := 0; epoch < 50; epoch++ {
		perturb(inputs, epoch%2 == 0)
		_, cst, err := ca.AllocateWithStats(inputs)
		if err != nil {
			return 0, 0, err
		}
		_, wst, err := wa.AllocateWithStats(inputs)
		if err != nil {
			return 0, 0, err
		}
		cold += cst.LambdaIters
		warm += wst.LambdaIters
	}
	return cold, warm, nil
}

// measureChurn runs the 10k-session open-loop churn benchmark — coalesced
// epochs and incremental re-solves, with every 8th epoch structurally
// checked — plus a smaller solve-per-event baseline that shows the
// O(solve-per-event) pathology coalescing removes.
func measureChurn() (*ChurnReport, error) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	res, err := harpsim.RunChurn(harpsim.ChurnOptions{
		Sessions:      10000,
		Ticks:         40,
		EventsPerTick: 20,
		Seed:          1,
		Coalesce:      true,
		Incremental:   true,
		CheckEvery:    8,
	})
	if err != nil {
		return nil, err
	}
	base, err := harpsim.RunChurn(harpsim.ChurnOptions{
		Sessions:      1000,
		Ticks:         10,
		EventsPerTick: 5,
		Seed:          1,
		// Coalesce off: the historical solve-per-event behaviour.
	})
	if err != nil {
		return nil, err
	}
	return &ChurnReport{
		Sessions:         10000,
		Ticks:            40,
		Events:           res.Events,
		Epochs:           res.Epochs,
		P50Ms:            ms(res.P50),
		P99Ms:            ms(res.P99),
		MaxMs:            ms(res.Max),
		TickBudgetMs:     ms(core.AdaptationTick),
		SolveSources:     res.SolveSources,
		Checked:          res.Checked,
		BaselineSessions: 1000,
		BaselineEvents:   base.Events,
		BaselineEpochs:   base.Epochs,
		BaselineP99Ms:    ms(base.P99),
	}, nil
}

// measureCluster runs the fleet benchmark: one faulted coordinated run
// (machine kill at ¼, coordinator kill at ½) and one static-partitioning
// run over the same seed, both invariant-checked every tick.
func measureCluster() (*ClusterReport, error) {
	const (
		machines = 4
		sessions = 5
		ticks    = 600
		budgetW  = 60.0
	)
	opts := harpsim.ClusterOptions{
		Machines:     machines,
		Sessions:     sessions,
		Ticks:        ticks,
		Seed:         1,
		FleetBudgetW: budgetW,
		Verify:       true,
		Plan: &faultsim.Plan{Seed: 1, Faults: []faultsim.Fault{
			{At: harpsim.ClusterTick(ticks / 4), Target: "m1", Kind: faultsim.KindMachineKill},
			{At: harpsim.ClusterTick(ticks / 2), Target: faultsim.CoordinatorTarget, Kind: faultsim.KindCoordKill},
		}},
	}
	dyn, err := harpsim.RunCluster(opts)
	if err != nil {
		return nil, err
	}
	stOpts := opts
	stOpts.Static = true
	stOpts.Plan = nil // the baseline measures partitioning, not fault response
	st, err := harpsim.RunCluster(stOpts)
	if err != nil {
		return nil, err
	}
	rep := &ClusterReport{
		Machines:        machines,
		Sessions:        sessions,
		Ticks:           ticks,
		FleetBudgetW:    budgetW,
		EnergyDynamicJ:  dyn.EnergyJ,
		EnergyStaticJ:   st.EnergyJ,
		MaxFleetPowerW:  maxFloat(dyn.MaxFleetPowerW, st.MaxFleetPowerW),
		Migrations:      dyn.Stats.Migrations,
		MachineDeaths:   dyn.Stats.MachineDeaths,
		Failovers:       dyn.Stats.Failovers,
		MaxUnownedTicks: dyn.MaxUnownedTicks,
		FinalUnowned:    dyn.FinalUnowned,
	}
	if st.EnergyJ > 0 {
		rep.EnergySavedPct = 100 * (1 - dyn.EnergyJ/st.EnergyJ)
	}
	return rep, nil
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func regimeOf(res testing.BenchmarkResult, iters int) Regime {
	return Regime{
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		LambdaIters: iters,
	}
}
