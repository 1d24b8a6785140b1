package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// simScenarios returns every pair of the nine NAS Intel applications: 36
// two-application scenarios, the multi-application mix of §6.3.
func simScenarios() []harpsim.Scenario {
	plat := platform.RaptorLake()
	apps := workload.NASIntel()
	var out []harpsim.Scenario
	for i := range apps {
		for j := i + 1; j < len(apps); j++ {
			out = append(out, harpsim.Scenario{
				Name:     apps[i].Name + "+" + apps[j].Name,
				Platform: plat,
				Apps:     []*workload.Profile{apps[i], apps[j]},
			})
		}
	}
	return out
}

// simPass is one run of every scenario, one after another.
type simPass struct {
	energyJ, makespanS float64
	host, cpu          time.Duration // summed over the pass's scenarios
	allocB             uint64
	failed             int
	journals           []*bytes.Buffer // traced: one per scenario
	journal            journalStats
	metrics            *telemetry.Metrics
}

// simRunner runs the scenarios in order, pass after pass, and can stop
// after any scenario, so a window may be cut into chunks with other work
// between them. The workload seed drives each scenario's measurement noise.
// Traced, it attaches a metrics bundle per pass and a journal per scenario
// (the Options.Metrics and Options.Journal seams).
type simRunner struct {
	scs    []harpsim.Scenario
	seed   int64
	policy harpsim.Policy
	traced bool
	out    *outcome
	next   int     // the next scenario's index
	cur    simPass // the pass in progress
	passes []simPass
}

func newSimRunner(scs []harpsim.Scenario, seed int64, policy harpsim.Policy, traced bool, out *outcome) *simRunner {
	return &simRunner{scs: scs, seed: seed, policy: policy, traced: traced, out: out}
}

// run runs scenarios until d has elapsed, at least one.
func (r *simRunner) run(d time.Duration) {
	start := time.Now()
	r.step()
	for time.Since(start) < d {
		r.step()
	}
}

// finish completes the pass in progress, and runs one if none is complete.
func (r *simRunner) finish() {
	for r.next != 0 || len(r.passes) == 0 {
		r.step()
	}
}

// step runs the next scenario and closes the pass after the last one. Every
// pass that ran cleanly must reproduce the first pass's energy and makespan
// exactly.
func (r *simRunner) step() {
	if r.next == 0 {
		r.cur = simPass{}
		if r.traced {
			r.cur.metrics = telemetry.NewMetrics(telemetry.NewRegistry())
		}
	}
	i := r.next
	sc := r.scs[i]
	opts := harpsim.Options{Policy: r.policy, Seed: r.seed*1000 + int64(i)}
	if r.traced {
		jbuf := new(bytes.Buffer) // parsed when the pass closes, outside its timing
		r.cur.journals = append(r.cur.journals, jbuf)
		opts.Metrics = r.cur.metrics
		opts.Journal = telemetry.NewJournal(jbuf)
	}
	rt0 := readRuntime()
	start := time.Now()
	cpu0 := cpuTime()
	res, err := harpsim.Run(sc, opts)
	r.cur.cpu += cpuTime() - cpu0
	r.cur.host += time.Since(start)
	r.cur.allocB += readRuntime().allocBytes - rt0.allocBytes
	if err == nil {
		err = checkSimResult(sc, res)
	}
	if err != nil {
		r.cur.failed++
		r.out.fail(err.Error())
	} else {
		r.out.add(1, nil)
		r.cur.energyJ += res.EnergyJ
		r.cur.makespanS += res.MakespanSec
	}
	r.next++
	if r.next < len(r.scs) {
		return
	}
	r.next = 0
	p := r.cur
	for _, jbuf := range p.journals {
		if err := p.journal.scan(jbuf, 0); err != nil {
			p.failed++
			r.out.fail("journal: " + err.Error())
		}
	}
	p.journals = nil
	if p.failed == 0 && len(r.passes) > 0 && (p.energyJ != r.passes[0].energyJ || p.makespanS != r.passes[0].makespanS) {
		r.out.fail("pass not reproducible")
	}
	r.passes = append(r.passes, p)
}

// checkSimResult requires every application of the scenario to finish with
// non-zero energy.
func checkSimResult(sc harpsim.Scenario, res *harpsim.Result) error {
	if len(res.Apps) != len(sc.Apps) {
		return fmt.Errorf("%s: %d of %d apps finished", sc.Name, len(res.Apps), len(sc.Apps))
	}
	if res.EnergyJ <= 0 || res.MakespanSec <= 0 {
		return fmt.Errorf("%s: no energy or makespan", sc.Name)
	}
	for name, ar := range res.Apps {
		if ar.DynEnergyJ <= 0 || ar.TimeSec <= 0 {
			return fmt.Errorf("%s: %s finished without energy", sc.Name, name)
		}
	}
	return nil
}

// simSetUp builds the scenarios and runs one of them, so code and caches
// are warm before timing.
func simSetUp(seed int64) ([]harpsim.Scenario, error) {
	scs := simScenarios()
	if _, err := harpsim.Run(scs[0], harpsim.Options{Policy: harpsim.PolicyHARP, Seed: seed}); err != nil {
		return nil, err
	}
	return scs, nil
}

// simFigures records the simulated path's end-to-end metrics from the
// runner's complete passes.
func simFigures(r *simRunner, out *outcome) {
	speeds, wallSpeeds := passSpeeds(r.passes)
	out.set("sim_energy_j", r.passes[0].energyJ, "J")
	out.set("sim_makespan_s", r.passes[0].makespanS, "s")
	out.set("sim_speed_x", median(speeds), "x")
	out.log["passes"] = len(r.passes)
	out.log["pass_speeds_x"] = speeds
	out.log["pass_wall_speeds_x"] = wallSpeeds
}

// passSpeeds returns each pass's simulated seconds per second of process
// CPU time (sim_speed_x) and per wall-clock second (logged). The workload is
// one goroutine, so on a dedicated host the two agree; on a shared host the
// CPU-time figure leaves out the time the machine was not scheduled.
func passSpeeds(passes []simPass) (cpu, wall []float64) {
	for _, p := range passes {
		cpu = append(cpu, p.makespanS/p.cpu.Seconds())
		wall = append(wall, p.makespanS/p.host.Seconds())
	}
	return cpu, wall
}
