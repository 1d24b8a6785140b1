package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/harp-rm/harp/harpsim"
)

// mainShare is the part of the window a workload gives its own path. The
// rest runs the other path — a solve-churn closed loop on sim-online,
// sim-online passes on a socket workload — so that every workload reports
// every metric. Each metric is best read on its own workload; on the others
// it comes from a shorter window.
const mainShare = 0.75

// chunks is how many times an untraced run alternates between the two
// paths. A shared host's speed wanders over tens of seconds; spreading each
// path over the whole run, rather than giving the other path one stretch at
// its end, lets both see the same mix of host speeds.
const chunks = 3

// runWorkload runs the workload's own path and then the other path, and
// reports every end-to-end metric (or, traced, every per-layer metric).
func runWorkload(cfg runConfig, meta map[string]any) (*outcome, error) {
	simMain := cfg.workload == "sim-online"
	mainWin := seconds(cfg.seconds * mainShare)
	socketWin, simWin := mainWin, seconds(cfg.seconds)-mainWin
	if simMain {
		socketWin, simWin = simWin, socketWin
	}
	meta["clients"] = runtime.NumCPU()
	meta["socket_seconds"] = socketWin.Seconds()
	meta["sim_seconds"] = simWin.Seconds()
	pids := new(atomic.Int64)
	pids.Store(1000)
	out := newOutcome()

	if cfg.trace {
		if err := runSocketTraced(cfg, socketWin, pids, out); err != nil {
			return nil, err
		}
		scs, err := simSetUp(cfg.seed)
		if err != nil {
			return nil, err
		}
		if err := simTraced(cfg, scs, simWin, out); err != nil {
			return nil, err
		}
		return out, nil
	}

	// Set-up: both paths, setupRounds times; the last round's server and
	// scenarios are measured.
	var (
		setups []float64
		c      *churn
		scs    []harpsim.Scenario
	)
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		cc, err := setUp(cfg, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", round)), nil, pids)
		if err != nil {
			return nil, err
		}
		if scs, err = simSetUp(cfg.seed); err != nil {
			_ = cc.rm.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if round < setupRounds-1 {
			if err := cc.rm.close(); err != nil {
				return nil, err
			}
			continue
		}
		c = cc
	}
	out.set("setup_s", median(setups), "s")
	out.log["setup_rounds_s"] = setups

	var windows []windowStats
	var simSmps []*sampler
	sim := newSimRunner(scs, cfg.seed, harpsim.PolicyHARP, false, out)
	slices := windowSlices / chunks
	for i := 0; i < chunks; i++ {
		socketChunk := func() {
			windows = append(windows, c.measure(cfg.seed, socketWin/chunks, slices))
		}
		simChunk := func() {
			smp := startSampler(simWin/chunks, slices, nil)
			sim.run(simWin / chunks)
			smp.stop()
			simSmps = append(simSmps, smp)
		}
		if simMain {
			simChunk()
			socketChunk()
		} else {
			socketChunk()
			simChunk()
		}
	}
	sim.finish()
	socketRSS, err := socketFigures(c, windows, out)
	if err != nil {
		return nil, err
	}
	simFigures(sim, out)
	simRSS := peakRSS(simSmps...)
	// Resident memory is the workload's own path's.
	if simMain {
		out.set("peak_rss_mb", simRSS, "MB")
	} else {
		out.set("peak_rss_mb", socketRSS, "MB")
	}
	return out, nil
}
