package harpsim

import (
	"fmt"
	"time"

	"github.com/harp-rm/harp/internal/opoint"
)

// LearnResult is what a learning (warm-up) run produces.
type LearnResult struct {
	// Tables are the final learned operating-point tables per application.
	Tables map[string]*opoint.Table
	// Snapshots are periodic captures of the learning state (Fig. 8 uses
	// 5 s intervals).
	Snapshots []Snapshot
	// StableAfterSec is when every application first reached the stable
	// stage (−1 if never within the horizon).
	StableAfterSec float64
}

// LearnTables runs the scenario under PolicyHARP in repeat mode: finished
// applications restart immediately, so runtime exploration can mature the
// way the paper's warm-up phase does (§6.5). It returns the learned tables
// and, if snapshotEvery > 0, periodic snapshots of the tables and stage
// status.
func LearnTables(sc Scenario, learnFor, snapshotEvery time.Duration, opts Options) (*LearnResult, error) {
	opts = opts.withDefaults()
	opts.Policy = PolicyHARP
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if learnFor <= 0 {
		return nil, fmt.Errorf("harpsim: learn duration %v", learnFor)
	}
	if !sc.Platform.SimultaneousPMU {
		return nil, fmt.Errorf(
			"harpsim: platform %s cannot learn online (no simultaneous PMU access)", sc.Platform.Name)
	}

	machine, err := newMachine(sc, opts)
	if err != nil {
		return nil, err
	}
	harness, err := attachHARP(machine, sc, opts, nil)
	if err != nil {
		return nil, err
	}
	harness.repeat = true
	harness.repeatUntil = learnFor

	result := &LearnResult{StableAfterSec: -1}
	if snapshotEvery > 0 {
		machine.Every(snapshotEvery, func(now time.Duration) {
			result.Snapshots = append(result.Snapshots, Snapshot{
				AtSec:     now.Seconds(),
				AllStable: harness.mgr.AllStable() && len(harness.managed) > 0,
				Tables:    harness.mgr.LearnedTables(),
			})
		})
	}

	if err := startApps(machine, sc.Apps); err != nil {
		return nil, err
	}
	if err := machine.Run(learnFor); err != nil {
		return nil, fmt.Errorf("harpsim: learning %s: %w", sc.Name, err)
	}

	result.Tables = harness.mgr.LearnedTables()
	result.StableAfterSec = harness.stableAtSec
	return result, nil
}
