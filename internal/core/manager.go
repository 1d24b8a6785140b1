// Package core implements the HARP resource manager (§4): the paper's
// primary contribution. A Manager tracks registered applications (sessions),
// maintains their operating-point tables (offline-supplied or learned online
// through internal/explore), solves the energy-efficient allocation problem
// (internal/alloc), and pushes decisions back to applications through a
// caller-supplied callback — the two-way coordination channel.
//
// The Manager is transport- and time-agnostic: the harp package drives it
// from Unix-socket sessions and wall-clock timers, while harpsim drives it
// from the simulator's virtual clock. It is not goroutine-safe; the embedding
// layer serialises calls.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/explore"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// DefaultReallocEvery is how many stable-stage measurements pass between
// allocation reassessments (§5.3: every 100 measurements).
const DefaultReallocEvery = 100

// DefaultEpochBudget is the default per-solve deadline budget: a fraction
// of the 50 ms adaptation tick, leaving headroom for the push and journal
// phases. Enforced only when Config.LatencyClock is wired (live servers);
// simulated runs have no wall deadline and rely on the error/stall rungs.
const DefaultEpochBudget = 20 * time.Millisecond

// Common errors.
var (
	// ErrUnknownSession is returned for operations on unregistered
	// instances.
	ErrUnknownSession = errors.New("core: unknown session")
	// ErrDuplicateSession is returned when an instance registers twice.
	ErrDuplicateSession = errors.New("core: session already registered")
)

// errSolverStalled stands in for the primary solver when an injected or
// detected stall skips it (degradation-ladder entry).
var errSolverStalled = errors.New("core: solver stalled past its deadline budget")

// Decision is one allocation pushed to an application (§4.1.1 step 3).
type Decision struct {
	// Instance is the registered application instance.
	Instance string
	// Seq orders decisions globally.
	Seq int
	// Vector is the activated extended resource vector.
	Vector platform.ResourceVector
	// Threads is the parallelisation degree for scalable/custom apps
	// (0 = leave unchanged, used for static apps).
	Threads int
	// Grants are the concrete cores assigned.
	Grants []alloc.CoreGrant
	// CoAllocated warns that the cores are time-shared with other apps.
	CoAllocated bool
	// Exploring marks an exploration configuration rather than a
	// cost-optimal stable allocation.
	Exploring bool
	// PredictedPowerW is the selected operating point's predicted power
	// draw — the application's slice of the system power budget (0 for
	// exploration probes, which have no prediction yet).
	PredictedPowerW float64
}

// SessionInfo is a read-only session summary.
type SessionInfo struct {
	Instance    string
	App         string
	Adaptivity  workload.Adaptivity
	OwnUtility  bool
	Stage       explore.Stage
	CoAllocated bool
	Measured    int
	// Phase is the application-announced execution stage (§7 outlook
	// extension; empty if never announced).
	Phase string
	// Liveness is the session's health state (live, suspect, quarantined).
	Liveness Liveness
	// LastReportAgeSec is the silence age the embedding layer observed when
	// the summary was taken (-1 when the embedder does not track liveness).
	LastReportAgeSec float64
	// Utility and Power are the last smoothed sample fed to Measure.
	Utility float64
	Power   float64
	// Vector, Threads, Cores, Seq and Exploring summarise the session's
	// standing decision (zero values before the first push).
	Vector    string
	Threads   int
	Cores     int
	Seq       int
	Exploring bool
}

// Allocator solves the MMKP for the manager. *alloc.Allocator is the
// production implementation; the indirection exists so correctness tests can
// inject failing or instrumented solvers and verify that allocation errors
// surface in the decision journal instead of turning into bad decisions.
type Allocator interface {
	AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error)
}

// Config configures a Manager.
type Config struct {
	// Platform is the hardware description (required).
	Platform *platform.Platform
	// Allocator solves the MMKP; nil builds a default Lagrangian allocator.
	Allocator Allocator
	// Explore tunes runtime exploration.
	Explore explore.Config
	// OfflineTables maps application names to pre-generated operating-point
	// tables (the /etc/harp directory, §4.3).
	OfflineTables map[string]*opoint.Table
	// DisableExploration turns off online exploration — the HARP (Offline)
	// configuration, mandatory on platforms without simultaneous PMU access
	// such as the Odroid XU3-E (§6.4).
	DisableExploration bool
	// ReallocEvery is the stable-stage reallocation cadence in
	// measurements; 0 selects DefaultReallocEvery.
	ReallocEvery int
	// Tracer receives structured adaptation-loop events (nil disables
	// tracing). It is also handed to the explorers and, when Allocator is
	// nil, to the default allocator.
	Tracer *telemetry.Tracer
	// Journal records one JSONL epoch per decision batch (nil disables).
	Journal *telemetry.Journal
	// Metrics receives the adaptation-loop instruments (nil disables).
	Metrics *telemetry.Metrics
	// Energy accumulates per-session and fleet joules from Measure samples
	// (nil disables energy accounting). The embedding layer owns the ledger
	// and its clock: harp.Server binds wall time since startup, harpsim binds
	// the machine's virtual clock.
	Energy *telemetry.EnergyLedger
	// LatencyClock, when set, times each allocation for the
	// harp_allocation_seconds histogram. Servers inject wall time since
	// startup; simulated runs leave it nil (the histogram would measure
	// host speed, not simulated behaviour).
	LatencyClock func() time.Duration
	// Store receives one durable record per mutating operation (nil
	// disables persistence). Assign a *store.Store only when non-nil — a
	// typed-nil interface would defeat the Manager's nil check.
	Store StateSink
	// MaxSessions caps concurrent registrations (0 = unlimited). Attempts
	// beyond the cap fail with ErrTooManySessions.
	MaxSessions int
	// AllocCacheSize sizes the default allocator's fingerprinted solution
	// cache: 0 selects alloc.DefaultCacheSize, negative disables caching.
	// Ignored when Allocator is set — a custom allocator manages its own
	// caching. The cache is content-addressed, so it is decision-transparent:
	// register/deregister/phase-change/table mutations change the fingerprint
	// and miss naturally (see PERFORMANCE.md).
	AllocCacheSize int
	// AllocWarmStart seeds the default allocator's subgradient iteration
	// from the previous epoch's λ vector. Warm-started solves converge in
	// fewer iterations but are not guaranteed bit-identical to cold solves,
	// so this is opt-in. Ignored when Allocator is set.
	AllocWarmStart bool
	// Coalesce batches the epochs mutating operations trigger: instead of one
	// solve per Register/Deregister/UploadTable/PhaseChange, a pending epoch
	// is enqueued and flushed by the adaptation tick (Manager.Tick) or at the
	// dirty-event bound. The zero value preserves solve-per-event behaviour.
	// See coalesce.go.
	Coalesce CoalescePolicy
	// AllocIncremental enables the default allocator's incremental re-solve
	// path: unchanged sessions stay pinned at their standing allocations and
	// only the changed set re-optimises against the residual capacity.
	// Opt-in for the same reason as AllocWarmStart — results are not
	// guaranteed bit-identical to cold solves. Ignored when Allocator is set.
	AllocIncremental bool
	// EpochBudget is the per-solve deadline for the degradation ladder:
	// the default allocator's subgradient loop cuts off early when the
	// budget is exceeded, and a solve that cannot produce a result at all
	// falls to the cheaper rungs (greedy fallback, last-known-good,
	// frozen). Wall-clock enforcement requires LatencyClock; 0 selects
	// DefaultEpochBudget, negative disables the deadline (the error, stall
	// and panic rungs stay active). With a custom Allocator the greedy
	// fallback rung is unavailable and solver errors keep their fail-fast
	// semantics — the indirection exists so tests can observe error epochs.
	EpochBudget time.Duration
}

type session struct {
	instance   string
	app        string
	adaptivity workload.Adaptivity
	ownUtility bool

	explorer *explore.Explorer

	// Current decision state.
	last *Decision

	// Exploration state for the current epoch: the concrete core pool the
	// session may roam in, and its per-kind size (the exploration bound).
	pool  map[platform.KindID][]int
	bound []int

	stableMeasurements int
	coAllocated        bool
	phase              string
	liveness           Liveness

	// Telemetry state: the last smoothed sample, and the session's gauges
	// cached at registration so the 50 ms hot path skips the GaugeVec map.
	lastUtility float64
	lastPower   float64
	utilGauge   *telemetry.Gauge
	powerGauge  *telemetry.Gauge
}

// Manager is the HARP resource manager.
type Manager struct {
	cfg       Config
	allocator Allocator
	sessions  map[string]*session
	explorers map[string]*explore.Explorer // per application name; persists across sessions
	// order preserves registration order for deterministic solves. Removal
	// tombstones the slot ("" entries, skipped by every iterator) and
	// compacts when half the slice is dead, so a deregistration storm is
	// amortised O(1) per event instead of the old O(N) scan. orderIdx maps
	// instance -> live slot; orderDead counts tombstones.
	order     []string
	orderIdx  map[string]int
	orderDead int
	seq       int
	onDecide  []func(Decision)

	// Coalescing state (coalesce.go): one pending epoch batching the
	// mutating events since the last solve.
	pendingEpoch   bool
	pendingTrigger string
	pendingEvents  int
	pendingTicks   int
	// ended remembers instances that deregistered, so a re-registration of
	// the same instance can be counted as a session resumption.
	ended map[string]struct{}
	// priorPhase remembers the last announced phase of sessions recovered
	// from durable state (ImportState), restored when the client reconnects.
	priorPhase map[string]string

	// pendingOut accumulates the decisions pushed since the last journal
	// epoch (only when a journal is configured), so an epoch's Outputs are
	// exactly the EvDecisionPushed events it covers.
	pendingOut []telemetry.EpochOutput

	// lastSolveSource remembers where the most recent solve's solution came
	// from ("cold", "warm" or "cached") for status surfaces; empty before
	// the first solve.
	lastSolveSource string

	// Flight-recorder phase histograms, resolved once at construction so the
	// epoch path never touches the HistogramVec map (nil without metrics —
	// the span API is nil-safe).
	epochHist    *telemetry.Histogram
	snapshotHist *telemetry.Histogram
	pushHist     *telemetry.Histogram
	journalHist  *telemetry.Histogram

	// Degradation-ladder state (see solveWithLadder). fallback is the
	// greedy rung-2 solver, built only alongside the default allocator;
	// lastGood is a clone of the most recent healthy solve's allocations;
	// forceDegraded counts pending injected solver stalls; lastEpochErr is
	// the sticky message of the last failed or degraded epoch; lastRung is
	// the rung that resolved the most recent epoch ("" = healthy); the
	// deadline pair arms the allocator's over-budget probe per solve.
	fallback      Allocator
	lastGood      []alloc.Allocation
	forceDegraded int
	lastEpochErr  string
	lastRung      string
	deadlineAt    time.Duration
	deadlineArmed bool
}

// NewManager creates a resource manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Platform == nil {
		return nil, errors.New("core: config without platform")
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Platform.SimultaneousPMU && !cfg.DisableExploration {
		return nil, fmt.Errorf(
			"core: platform %s cannot monitor all core kinds simultaneously; online exploration must be disabled (§6.4)",
			cfg.Platform.Name)
	}
	allocator := cfg.Allocator
	var fallback Allocator
	if allocator == nil {
		cacheSize := cfg.AllocCacheSize
		if cacheSize == 0 {
			cacheSize = alloc.DefaultCacheSize
		}
		var err error
		allocator, err = alloc.New(cfg.Platform,
			alloc.WithTracer(cfg.Tracer),
			alloc.WithMetrics(cfg.Metrics),
			alloc.WithCache(cacheSize),
			alloc.WithWarmStart(cfg.AllocWarmStart),
			alloc.WithIncremental(cfg.AllocIncremental),
		)
		if err != nil {
			return nil, err
		}
		// The rung-2 fallback: a bare greedy solver with no cache or warm
		// state, so a degraded epoch never perturbs the primary solver's
		// memo and unfaulted runs stay byte-identical.
		fallback, err = alloc.New(cfg.Platform, alloc.WithMethod(alloc.Greedy))
		if err != nil {
			return nil, err
		}
	}
	if cfg.Explore.Tracer == nil {
		cfg.Explore.Tracer = cfg.Tracer
	}
	if cfg.ReallocEvery == 0 {
		cfg.ReallocEvery = DefaultReallocEvery
	}
	if cfg.ReallocEvery < 1 {
		return nil, fmt.Errorf("core: realloc cadence %d", cfg.ReallocEvery)
	}
	if cfg.EpochBudget == 0 {
		cfg.EpochBudget = DefaultEpochBudget
	}
	m := &Manager{
		cfg:        cfg,
		allocator:  allocator,
		fallback:   fallback,
		sessions:   make(map[string]*session),
		explorers:  make(map[string]*explore.Explorer),
		ended:      make(map[string]struct{}),
		priorPhase: make(map[string]string),
		orderIdx:   make(map[string]int),
	}
	if cfg.LatencyClock != nil && cfg.EpochBudget > 0 {
		if da, ok := allocator.(interface{ SetOverBudget(func() bool) }); ok {
			da.SetOverBudget(func() bool {
				return m.deadlineArmed && m.cfg.LatencyClock() > m.deadlineAt
			})
		}
	}
	if mt := cfg.Metrics; mt != nil {
		m.epochHist = mt.EpochPhase.With(telemetry.PhaseEpoch)
		m.snapshotHist = mt.EpochPhase.With(telemetry.PhaseSnapshot)
		m.pushHist = mt.EpochPhase.With(telemetry.PhasePush)
		m.journalHist = mt.EpochPhase.With(telemetry.PhaseJournal)
		cfg.Energy.BindMetrics(mt.SessionEnergy, mt.EnergyTotal, mt.BudgetOverrunSeconds)
	}
	return m, nil
}

// explorerFor returns the application's persistent explorer, creating and
// seeding it on first use. Operating-point tables outlive individual
// sessions: profiles are refined across repeated executions (§4.3,
// "self-improving resource management").
func (m *Manager) explorerFor(app string) *explore.Explorer {
	if e, ok := m.explorers[app]; ok {
		return e
	}
	e := explore.New(m.cfg.Platform, app, m.cfg.Explore)
	if tbl, ok := m.cfg.OfflineTables[app]; ok {
		e.SeedTable(tbl)
	}
	m.explorers[app] = e
	return e
}

// OnDecision registers a callback invoked for every pushed decision.
func (m *Manager) OnDecision(fn func(Decision)) {
	m.onDecide = append(m.onDecide, fn)
}

// Register adds an application session and triggers a reallocation
// (§4.1.1 step 1). If an offline table for the application exists it seeds
// the session — with exploration disabled, that is the only knowledge source.
func (m *Manager) Register(instance, app string, adaptivity workload.Adaptivity, ownUtility bool) error {
	if instance == "" || app == "" {
		return errors.New("core: registration with empty instance or app name")
	}
	if _, ok := m.sessions[instance]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateSession, instance)
	}
	if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
		return m.rejectRegistration(instance, app, "max-sessions")
	}
	s := &session{
		instance:   instance,
		app:        app,
		adaptivity: adaptivity,
		ownUtility: ownUtility,
		explorer:   m.explorerFor(app),
	}
	// Stash the restart-continuity state the registration consumes so a
	// failed solve can restore it: without the stash, a failed registration
	// followed by a successful retry loses the resumed phase and the
	// reconnect count.
	priorPhase, hadPrior := m.priorPhase[instance]
	_, wasEnded := m.ended[instance]
	if hadPrior {
		// The instance existed before an RM restart; resume its announced
		// phase so the journal and status views stay continuous.
		s.phase = priorPhase
		delete(m.priorPhase, instance)
	}
	m.sessions[instance] = s
	m.orderAdd(instance)
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     telemetry.EvSessionRegistered,
		Instance: instance,
		App:      app,
		Stage:    s.explorer.Stage().String(),
	})
	if mt := m.cfg.Metrics; mt != nil {
		mt.Sessions.Set(float64(len(m.sessions)))
		s.utilGauge = mt.SessionUtility.With(instance)
		s.powerGauge = mt.SessionPower.With(instance)
	}
	delete(m.ended, instance)
	m.updateLiveGauge()
	rerr := m.epochAfter("register")
	if rerr != nil && !m.cfg.Coalesce.Enabled {
		// Roll the half-registered session back out: the caller reports the
		// failure to the client, and a ghost session would keep joining
		// future solves with nobody listening for its decisions. The journal
		// has already recorded the error epoch. (With coalescing the session
		// stays — a flush failure covers many sessions, and evicting the one
		// that tripped the dirty bound would be arbitrary; see coalesce.go.)
		delete(m.sessions, instance)
		m.orderRemove(instance)
		if mt := m.cfg.Metrics; mt != nil {
			mt.Sessions.Set(float64(len(m.sessions)))
			// Release the per-instance label series cached on the session
			// above — without this every rejected registration leaks a gauge
			// pair and metric cardinality grows forever.
			mt.SessionUtility.Delete(instance)
			mt.SessionPower.Delete(instance)
		}
		// Restore the consumed continuity state for the retry.
		if hadPrior {
			m.priorPhase[instance] = priorPhase
		}
		if wasEnded {
			m.ended[instance] = struct{}{}
		}
		m.updateLiveGauge()
		return rerr
	}
	// Counted only once the registration sticks — a rolled-back attempt is
	// not a resumption.
	if mt := m.cfg.Metrics; mt != nil && wasEnded {
		mt.Reconnects.Inc()
	}
	m.appendRecord(store.Record{
		Kind:       store.RecRegister,
		Instance:   instance,
		App:        app,
		Adaptivity: adaptivity.String(),
		OwnUtility: s.ownUtility,
		Phase:      s.phase,
	})
	return rerr
}

// orderAdd appends an instance to the deterministic solve order.
func (m *Manager) orderAdd(instance string) {
	m.orderIdx[instance] = len(m.order)
	m.order = append(m.order, instance)
}

// orderRemove tombstones the instance's slot in O(1) and compacts the slice
// once half of it is dead, keeping removal amortised O(1) per event.
func (m *Manager) orderRemove(instance string) {
	idx, ok := m.orderIdx[instance]
	if !ok {
		return
	}
	delete(m.orderIdx, instance)
	m.order[idx] = ""
	m.orderDead++
	if m.orderDead*2 < len(m.order) {
		return
	}
	live := m.order[:0]
	for _, id := range m.order {
		if id == "" {
			continue
		}
		m.orderIdx[id] = len(live)
		live = append(live, id)
	}
	m.order = live
	m.orderDead = 0
}

// UploadTable merges operating points supplied by the application itself
// (description file shipped with the app, §4.1.1 step 2) and reallocates.
func (m *Manager) UploadTable(instance string, t *opoint.Table) error {
	s, err := m.session(instance)
	if err != nil {
		return err
	}
	if t == nil {
		return errors.New("core: nil table upload")
	}
	if err := t.Validate(m.cfg.Platform); err != nil {
		return err
	}
	s.explorer.SeedTable(t)
	rerr := m.epochAfter("table-upload")
	m.appendRecord(store.Record{Kind: store.RecTable, Instance: instance, App: s.app, Table: t})
	return rerr
}

// Deregister removes a session (application exit) and reallocates.
func (m *Manager) Deregister(instance string) error {
	return m.deregister(instance, "deregister", telemetry.EvSessionExited)
}

// Reap removes a session the liveness reaper declared dead: the same cleanup
// as Deregister, but journaled and traced as a reap so decision streams
// distinguish voluntary exits from reclaimed sessions.
func (m *Manager) Reap(instance string) error {
	if mt := m.cfg.Metrics; mt != nil {
		if _, ok := m.sessions[instance]; ok {
			mt.SessionsReaped.Inc()
		}
	}
	return m.deregister(instance, "reap", telemetry.EvSessionReaped)
}

func (m *Manager) deregister(instance, trigger string, kind telemetry.EventKind) error {
	s, err := m.session(instance)
	if err != nil {
		return err
	}
	delete(m.sessions, instance)
	m.ended[instance] = struct{}{}
	m.cfg.Energy.EndSession(instance)
	m.orderRemove(instance)
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     kind,
		Instance: instance,
		App:      s.app,
	})
	if mt := m.cfg.Metrics; mt != nil {
		mt.Sessions.Set(float64(len(m.sessions)))
		mt.SessionUtility.Delete(instance)
		mt.SessionPower.Delete(instance)
	}
	m.updateLiveGauge()
	if len(m.sessions) == 0 {
		if mt := m.cfg.Metrics; mt != nil {
			mt.CoresGranted.Set(0)
		}
		m.appendRecord(store.Record{Kind: store.RecDeregister, Instance: instance, App: s.app})
		return nil
	}
	rerr := m.epochAfter(trigger)
	m.appendRecord(store.Record{Kind: store.RecDeregister, Instance: instance, App: s.app})
	return rerr
}

// SetLiveness transitions a session's health state (driven by the embedding
// layer's deadlines). Entering quarantine freezes learning and reallocates so
// the session's cores shrink to zero; leaving quarantine reallocates to
// restore them. Suspect transitions are recorded but keep the allocation.
// The reason labels the trace event (e.g. "silent", "write-failed").
func (m *Manager) SetLiveness(instance string, l Liveness, reason string) error {
	s, err := m.session(instance)
	if err != nil {
		return err
	}
	if s.liveness == l {
		return nil
	}
	old := s.liveness
	s.liveness = l
	var kind telemetry.EventKind
	switch {
	case l == LivenessQuarantined:
		kind = telemetry.EvSessionQuarantined
	case l == LivenessSuspect:
		kind = telemetry.EvSessionSuspect
	default:
		kind = telemetry.EvSessionReadmitted
	}
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     kind,
		Instance: instance,
		App:      s.app,
		Stage:    reason,
	})
	if mt := m.cfg.Metrics; mt != nil {
		switch kind {
		case telemetry.EvSessionQuarantined:
			mt.SessionsQuarantined.Inc()
		case telemetry.EvSessionReadmitted:
			mt.SessionsReadmitted.Inc()
		}
	}
	m.updateLiveGauge()
	switch {
	case l == LivenessQuarantined:
		// Freeze learning: an in-flight exploration measurement would mix
		// pre- and post-silence behaviour, and the stable cadence restarts
		// when the session resumes.
		s.explorer.Abort()
		s.stableMeasurements = 0
		return m.epochAfter("quarantine")
	case old == LivenessQuarantined:
		return m.epochAfter("readmit")
	}
	return nil
}

// Liveness returns a session's health state.
func (m *Manager) Liveness(instance string) (Liveness, error) {
	s, err := m.session(instance)
	if err != nil {
		return 0, err
	}
	return s.liveness, nil
}

// updateLiveGauge recounts the sessions in the live state.
func (m *Manager) updateLiveGauge() {
	mt := m.cfg.Metrics
	if mt == nil {
		return
	}
	live := 0
	for _, s := range m.sessions {
		if s.liveness == LivenessLive {
			live++
		}
	}
	mt.SessionsLive.Set(float64(live))
}

// Measure feeds one smoothed (utility, power) sample for a session
// (§4.1.1 step 4; the embedding layer samples at 50 ms). Exploring sessions
// fold it into the configuration under measurement; stable sessions count it
// toward the periodic reallocation cadence.
func (m *Manager) Measure(instance string, utility, power float64) error {
	s, err := m.session(instance)
	if err != nil {
		return err
	}
	s.lastUtility = utility
	s.lastPower = power
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     telemetry.EvMeasureSample,
		Instance: instance,
		App:      s.app,
		Utility:  utility,
		Power:    power,
	})
	if mt := m.cfg.Metrics; mt != nil {
		mt.Samples.Inc()
		s.utilGauge.Set(utility)
		s.powerGauge.Set(power)
	}
	// Energy accrues for every sample — quarantined and co-allocated
	// sessions still draw the watts they report, even while learning from
	// those samples is suspended.
	m.cfg.Energy.Observe(instance, utility, power)
	if s.liveness == LivenessQuarantined {
		// Learning is frozen in quarantine: the session's cores were
		// reclaimed, so samples describe a zero-resource configuration and
		// would corrupt the operating-point table. The embedding layer
		// readmits the session (SetLiveness) when its reports resume.
		return nil
	}
	if s.coAllocated {
		// Co-allocation distorts measurements; monitoring is suspended
		// (§4.2.2, Limitations).
		return nil
	}
	if m.exploring(s) {
		cur, measuring := s.explorer.Current()
		if !measuring {
			// Not currently measuring (e.g. just seeded); start a point.
			if err := m.startExploration(s); err != nil {
				return m.reallocate("exploration")
			}
			return m.flushMeasureEpoch()
		}
		done, err := s.explorer.Record(utility, power)
		if err != nil {
			return err
		}
		if !done {
			return nil
		}
		var rerr error
		switch {
		case s.explorer.Stage() == explore.StageStable:
			// Graduation: pick the cost-optimal allocation system-wide.
			rerr = m.reallocate("graduation")
		default:
			if err := m.startExploration(s); err != nil {
				rerr = m.reallocate("exploration")
			} else {
				rerr = m.flushMeasureEpoch()
			}
		}
		// Persist the committed point (after the reallocation, so the
		// record's Seq covers any decisions the commit triggered).
		if op, ok := s.explorer.Table().Lookup(cur); ok {
			m.appendRecord(store.Record{
				Kind:  store.RecPoint,
				App:   s.app,
				Point: &op,
				Stage: s.explorer.Stage().String(),
			})
		}
		return rerr
	}

	s.stableMeasurements++
	if s.stableMeasurements >= m.cfg.ReallocEvery {
		s.stableMeasurements = 0
		return m.reallocate("cadence")
	}
	return nil
}

// flushMeasureEpoch journals decisions pushed directly from Measure
// (exploration steps bypass reallocate); a no-op when nothing was pushed.
func (m *Manager) flushMeasureEpoch() error {
	if len(m.pendingOut) > 0 {
		m.recordEpoch("exploration", 0, "")
	}
	return nil
}

// PhaseChange handles an application's announcement that it entered a new
// execution stage with different performance-energy characteristics — the
// interface extension from the paper's outlook (§7). The session's current
// exploration measurement is discarded (it straddles two phases), the
// stable-stage cadence restarts, and the allocation is reassessed so the new
// phase's behaviour drives fresh measurements.
func (m *Manager) PhaseChange(instance, phase string) error {
	s, err := m.session(instance)
	if err != nil {
		return err
	}
	s.phase = phase
	s.stableMeasurements = 0
	if _, measuring := s.explorer.Current(); measuring {
		s.explorer.Abort()
	}
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     telemetry.EvPhaseChange,
		Instance: instance,
		App:      s.app,
		Stage:    phase,
	})
	rerr := m.epochAfter("phase-change")
	m.appendRecord(store.Record{Kind: store.RecPhase, Instance: instance, App: s.app, Phase: phase})
	return rerr
}

// Reallocate recomputes allocations for all sessions and pushes changed
// decisions. It is invoked on registration, exits, graduation to the stable
// stage, and the periodic stable-stage cadence.
func (m *Manager) Reallocate() error {
	return m.reallocate("manual")
}

// reallocate is Reallocate with the trigger label for the decision journal
// and trace events.
func (m *Manager) reallocate(trigger string) error {
	// Any full solve satisfies a queued coalesced epoch — absorb it so an
	// inline trigger (cadence, graduation, manual) never leaves a stale
	// pending flush behind.
	m.absorbPending()
	if len(m.sessions) == 0 {
		return nil
	}
	var t0 time.Duration
	timed := m.cfg.LatencyClock != nil
	if timed {
		t0 = m.cfg.LatencyClock()
	}

	ep := m.cfg.Tracer.BeginPhase(telemetry.PhaseEpoch, m.epochHist)
	defer ep.End()

	// Quarantined sessions are excluded from the solve: their cores shrink
	// to zero (a parked decision) and the survivors absorb the capacity.
	snap := m.cfg.Tracer.BeginPhase(telemetry.PhaseSnapshot, m.snapshotHist)
	inputs := make([]alloc.AppInput, 0, len(m.sessions))
	for _, id := range m.order {
		if id == "" {
			continue // tombstoned order slot (orderRemove)
		}
		s := m.sessions[id]
		if s.liveness == LivenessQuarantined {
			continue
		}
		inputs = append(inputs, alloc.AppInput{ID: id, Table: s.explorer.PredictedTable()})
	}
	snap.End()
	var allocs []alloc.Allocation
	var stats alloc.Stats
	staleOnly := false
	if len(inputs) > 0 {
		sr := m.solveWithLadder(inputs)
		if sr.hardErr != nil {
			// Custom-allocator fail-fast semantics: the solve failure pushes
			// nothing — every session keeps its standing decision — and is
			// journalled as an error epoch so operators see the gap in the
			// decision stream instead of a silently missing epoch.
			m.recordEpochError(trigger, sr.hardErr)
			return fmt.Errorf("core: allocate: %w", sr.hardErr)
		}
		if sr.frozen {
			// Ladder rung 4: no usable allocation exists at all. Standing
			// decisions stay frozen (pushing zeros would strand running
			// applications for a transient solver fault) and the epoch
			// records the gap.
			m.lastSolveSource = alloc.SourceFrozen
			m.recordEpochWith(trigger, 0, alloc.SourceFrozen, sr.errMsg)
			return nil
		}
		allocs, stats, staleOnly = sr.allocs, sr.stats, sr.stale
		if stats.Source != "" {
			m.lastSolveSource = stats.Source
		}
	}
	pushSpan := m.cfg.Tracer.BeginPhase(telemetry.PhasePush, m.pushHist)
	byID := make(map[string]alloc.Allocation, len(allocs))
	for _, al := range allocs {
		byID[al.ID] = al
	}

	// Free cores per kind = capacity − cores granted to isolated sessions.
	free := make(map[platform.KindID][]int)
	used := make(map[int]bool)
	for _, al := range allocs {
		if al.CoAllocated {
			continue
		}
		for _, g := range al.Grants {
			used[g.Core] = true
		}
	}
	for kindIdx := range m.cfg.Platform.Kinds {
		lo, hi := m.cfg.Platform.CoreRange(platform.KindID(kindIdx))
		for c := lo; c < hi; c++ {
			if !used[c] {
				free[platform.KindID(kindIdx)] = append(free[platform.KindID(kindIdx)], c)
			}
		}
	}

	// Count exploring sessions to split the free cores evenly (§5.3).
	var exploring []*session
	for _, id := range m.order {
		if id == "" {
			continue
		}
		s := m.sessions[id]
		if s.liveness == LivenessQuarantined {
			continue
		}
		s.coAllocated = byID[id].CoAllocated
		if m.exploring(s) && !s.coAllocated {
			exploring = append(exploring, s)
		}
	}

	for _, id := range m.order {
		if id == "" {
			continue
		}
		s := m.sessions[id]
		if s.liveness == LivenessQuarantined {
			s.explorer.Abort()
			s.pool = nil
			s.bound = nil
			s.coAllocated = false
			m.pushParked(s)
			continue
		}
		al, ok := byID[id]
		if !ok && staleOnly {
			// Stale replay (ladder rung 3): sessions absent from the
			// last-known-good allocation keep their standing decision
			// rather than being pushed to zero.
			continue
		}
		m.pushSession(s, al, free, len(exploring))
	}
	pushSpan.End()

	if timed {
		if mt := m.cfg.Metrics; mt != nil {
			mt.AllocLatency.Observe((m.cfg.LatencyClock() - t0).Seconds())
		}
	}
	if mt := m.cfg.Metrics; mt != nil {
		mt.Reallocations.Inc()
		mt.CoresGranted.Set(float64(m.grantedCores()))
	}
	m.recordEpoch(trigger, stats.LambdaIters, stats.Source)
	return nil
}

// solveResult is one epoch's outcome from the degradation ladder.
type solveResult struct {
	allocs []alloc.Allocation
	stats  alloc.Stats
	// stale marks a rung-3 replay: sessions missing from allocs keep their
	// standing decisions instead of being pushed to zero.
	stale bool
	// frozen marks rung 4: nothing usable, push no decisions at all.
	frozen bool
	// errMsg is the triggering failure, journalled on frozen epochs.
	errMsg string
	// hardErr carries a custom-allocator solve error through unchanged
	// (fail-fast semantics; no fallback rungs apply).
	hardErr error
}

// solveWithLadder runs the epoch's solve through the degradation ladder:
//
//  1. the deadline-bounded primary solve (the subgradient loop cuts off
//     early when EpochBudget is exceeded on the LatencyClock);
//  2. a greedy fallback solve when the primary errors, panics or stalls;
//  3. the last-known-good allocation replayed;
//  4. pushes frozen entirely.
//
// Rungs 2–4 are journalled via Stats.Source, counted per rung in
// harp_epoch_degraded_total and traced as EvEpochDegraded. A panicking
// solve additionally quarantines the session whose inputs reproduce the
// panic (poisonous-table isolation) before falling down the ladder.
func (m *Manager) solveWithLadder(inputs []alloc.AppInput) solveResult {
	var cause error
	if m.forceDegraded > 0 {
		// An injected stall skips the primary solve outright, exactly as a
		// wedged solver would look from the epoch loop's side.
		m.forceDegraded--
		cause = errSolverStalled
	} else {
		allocs, stats, pv, err := m.solvePrimary(inputs)
		switch {
		case pv != nil:
			inputs = m.quarantinePanicking(inputs, pv)
			cause = fmt.Errorf("core: solver panic: %s", truncatePanic(pv))
		case err == nil:
			m.lastRung = ""
			m.lastGood = cloneAllocs(allocs)
			return solveResult{allocs: allocs, stats: stats}
		case m.fallback == nil:
			// Custom allocators keep their fail-fast error contract.
			return solveResult{hardErr: err}
		default:
			cause = err
		}
	}

	// Rung 2: greedy fallback. Cheap, deterministic, and independent of
	// the primary solver's cache and warm state.
	if m.fallback != nil {
		if allocs, stats, pv, err := m.runAllocator(m.fallback, inputs); err == nil && pv == nil {
			stats.Source = alloc.SourceDegradedGreedy
			stats.LambdaIters = 0
			m.markRung(alloc.SourceDegradedGreedy, cause)
			m.lastGood = cloneAllocs(allocs)
			return solveResult{allocs: allocs, stats: stats}
		}
	}

	// Rung 3: replay the last-known-good allocation.
	if len(m.lastGood) > 0 {
		m.markRung(alloc.SourceDegradedStale, cause)
		return solveResult{
			allocs: cloneAllocs(m.lastGood),
			stats:  alloc.Stats{Source: alloc.SourceDegradedStale},
			stale:  true,
		}
	}

	// Rung 4: freeze.
	m.markRung(alloc.SourceFrozen, cause)
	return solveResult{frozen: true, errMsg: cause.Error()}
}

// solvePrimary runs the primary allocator with the epoch deadline armed
// and panic containment on.
func (m *Manager) solvePrimary(inputs []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, any, error) {
	if m.cfg.LatencyClock != nil && m.cfg.EpochBudget > 0 {
		m.deadlineAt = m.cfg.LatencyClock() + m.cfg.EpochBudget
		m.deadlineArmed = true
		defer func() { m.deadlineArmed = false }()
	}
	return m.runAllocator(m.allocator, inputs)
}

// runAllocator invokes one solver with panic containment; panicked is the
// recovered panic value (nil when the solve returned normally).
func (m *Manager) runAllocator(a Allocator, inputs []alloc.AppInput) (allocs []alloc.Allocation, stats alloc.Stats, panicked any, err error) {
	defer func() {
		if r := recover(); r != nil {
			allocs, stats, err = nil, alloc.Stats{}, nil
			panicked = r
		}
	}()
	allocs, stats, err = a.AllocateWithStats(inputs)
	return
}

// quarantinePanicking attributes a solve panic by probing each input alone
// against the primary solver, quarantines the offenders, and returns the
// surviving inputs. When no single input reproduces the panic (an
// interaction, or a non-deterministic fault) the inputs are returned
// unchanged and the ladder handles the epoch without isolation.
func (m *Manager) quarantinePanicking(inputs []alloc.AppInput, pv any) []alloc.AppInput {
	survivors := make([]alloc.AppInput, 0, len(inputs))
	poisonous := false
	for _, in := range inputs {
		if _, _, probePV, _ := m.runAllocator(m.allocator, []alloc.AppInput{in}); probePV != nil {
			m.quarantineForPanic(in.ID, probePV)
			poisonous = true
			continue
		}
		survivors = append(survivors, in)
	}
	if !poisonous {
		return inputs
	}
	return survivors
}

// quarantineForPanic moves a session into quarantine without triggering a
// nested reallocation — the surrounding epoch parks it in its own push
// phase, exactly like a liveness quarantine.
func (m *Manager) quarantineForPanic(instance string, pv any) {
	s, ok := m.sessions[instance]
	if !ok || s.liveness == LivenessQuarantined {
		return
	}
	s.liveness = LivenessQuarantined
	s.explorer.Abort()
	s.stableMeasurements = 0
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:     telemetry.EvSessionPanicked,
		Instance: instance,
		App:      s.app,
		Stage:    truncatePanic(pv),
	})
	if mt := m.cfg.Metrics; mt != nil {
		mt.SessionsQuarantined.Inc()
	}
	m.updateLiveGauge()
}

// markRung accounts one degraded epoch: the rung counter, the epoch
// failure counter, the sticky error surfaces and an EvEpochDegraded trace
// event.
func (m *Manager) markRung(rung string, cause error) {
	m.lastRung = rung
	m.lastEpochErr = cause.Error()
	if mt := m.cfg.Metrics; mt != nil {
		mt.EpochFailures.Inc()
		mt.EpochDegraded.With(rung).Inc()
	}
	m.cfg.Tracer.Emit(telemetry.Event{
		Kind:  telemetry.EvEpochDegraded,
		Stage: rung,
	})
}

// cloneAllocs deep-copies an allocation set. Cache hits share slices with
// the allocator's cache, and the last-known-good copy must outlive any
// churn there.
func cloneAllocs(in []alloc.Allocation) []alloc.Allocation {
	out := make([]alloc.Allocation, len(in))
	for i, al := range in {
		out[i] = al
		out[i].Grants = append([]alloc.CoreGrant(nil), al.Grants...)
	}
	return out
}

// truncatePanic renders a recovered panic value bounded for trace and
// status surfaces.
func truncatePanic(pv any) string {
	s := fmt.Sprintf("%v", pv)
	const max = 120
	if len(s) > max {
		s = s[:max] + "…"
	}
	return s
}

// pushSession pushes one session's epoch outcome with panic containment:
// a session whose table or decision path panics is quarantined
// (poisonous-table isolation) and parked, instead of the panic killing
// the epoch loop and every other session with it.
func (m *Manager) pushSession(s *session, al alloc.Allocation, free map[platform.KindID][]int, nExploring int) {
	defer func() {
		if r := recover(); r != nil {
			m.quarantineForPanic(s.instance, r)
			func() {
				defer func() {
					if recover() != nil {
						// Even the parked push panicked; drop the standing
						// decision so the session cannot hold ghost grants.
						s.last = nil
					}
				}()
				m.pushParked(s)
			}()
		}
	}()
	if m.exploring(s) && !s.coAllocated {
		m.setExplorationPool(s, al, free, nExploring)
		if err := m.startExploration(s); err != nil {
			// Nothing left to explore within the bound; run the base
			// allocation as-is.
			s.explorer.Abort()
			m.pushBase(s, al)
		}
		return
	}
	s.explorer.Abort()
	s.pool = nil
	s.bound = nil
	m.pushBase(s, al)
}

// ForceDegradedSolves makes the next n reallocation epochs skip the
// primary solver as if it had stalled past its deadline, walking the
// degradation ladder instead. Count-based and clock-free, so harpsim's
// solver-stall faults reproduce bit-identically on the virtual clock.
func (m *Manager) ForceDegradedSolves(n int) {
	if n > 0 {
		m.forceDegraded += n
	}
}

// LastEpochError returns the sticky message of the most recent failed or
// degraded epoch (empty while every epoch has been healthy).
func (m *Manager) LastEpochError() string { return m.lastEpochErr }

// DegradedRung returns the degradation-ladder rung that resolved the most
// recent epoch (alloc.SourceDegradedGreedy, SourceDegradedStale or
// SourceFrozen; empty when the last solve was healthy).
func (m *Manager) DegradedRung() string { return m.lastRung }

// LastSolveSource reports where the most recent epoch's solution came from
// (alloc.SourceCold, alloc.SourceWarm, alloc.SourceCached or a
// degradation-ladder rung; empty before the first solve).
func (m *Manager) LastSolveSource() string { return m.lastSolveSource }

// AllocCacheStats reports the allocator's solution-cache accounting, or the
// zero value when the configured allocator has no cache.
func (m *Manager) AllocCacheStats() alloc.CacheStats {
	if c, ok := m.allocator.(interface{ CacheStats() alloc.CacheStats }); ok {
		return c.CacheStats()
	}
	return alloc.CacheStats{}
}

// grantedCores counts the distinct physical cores held by spatially
// isolated standing decisions.
func (m *Manager) grantedCores() int {
	used := make(map[int]bool)
	for _, s := range m.sessions {
		if s.last == nil || s.last.CoAllocated {
			continue
		}
		for _, g := range s.last.Grants {
			used[g.Core] = true
		}
	}
	return len(used)
}

// recordEpoch writes one decision-journal record covering the decisions
// accumulated in pendingOut since the previous epoch; source labels where
// the epoch's solution came from (empty for epochs without a solve).
func (m *Manager) recordEpoch(trigger string, lambdaIters int, source string) {
	m.recordEpochWith(trigger, lambdaIters, source, "")
}

// recordEpochError journals a failed reallocation: an epoch with no outputs
// and the allocator's error, so the journal explains why no decisions were
// pushed for the trigger.
func (m *Manager) recordEpochError(trigger string, allocErr error) {
	m.recordEpochWith(trigger, 0, "", allocErr.Error())
}

func (m *Manager) recordEpochWith(trigger string, lambdaIters int, source, errMsg string) {
	if !m.cfg.Journal.Enabled() && m.cfg.Energy == nil {
		return
	}
	var budget float64
	for _, id := range m.order {
		if id == "" {
			continue
		}
		if s := m.sessions[id]; s.last != nil {
			budget += s.last.PredictedPowerW
		}
	}
	// The epoch's predicted system power is the fleet budget the energy
	// ledger accrues overrun against until the next epoch moves it.
	m.cfg.Energy.SetBudget(budget)
	if m.cfg.Journal.Enabled() {
		rec := telemetry.EpochRecord{
			AtSec:        m.cfg.Tracer.Now().Seconds(),
			Trigger:      trigger,
			LambdaIters:  lambdaIters,
			SolveSource:  source,
			PowerBudgetW: budget,
			Error:        errMsg,
			Inputs:       make([]telemetry.EpochInput, 0, len(m.order)),
			Outputs:      m.pendingOut,
		}
		if led := m.cfg.Energy; led != nil {
			tot := led.Totals()
			rec.EnergyJ = tot.Joules
			rec.BudgetHeadroomW = budget - tot.PowerW
		}
		for _, id := range m.order {
			if id == "" {
				continue
			}
			s := m.sessions[id]
			rec.Inputs = append(rec.Inputs, telemetry.EpochInput{
				Instance: s.instance,
				App:      s.app,
				Stage:    s.explorer.Stage().String(),
				Utility:  s.lastUtility,
				PowerW:   s.lastPower,
				Measured: s.explorer.Table().MeasuredCount(),
			})
		}
		m.pendingOut = nil
		jsp := m.cfg.Tracer.BeginPhase(telemetry.PhaseJournal, m.journalHist)
		_ = m.cfg.Journal.Record(rec) // sticky error readable via Journal.Err
		jsp.End()
	}
	if m.cfg.Energy != nil {
		// Persist the ledger once per epoch: a crash loses at most the
		// accrual since this record, so recovered joules stay monotone.
		m.appendRecord(store.Record{Kind: store.RecEnergy, Energy: m.cfg.Energy.Export()})
	}
}

// exploring reports whether a session is still learning.
func (m *Manager) exploring(s *session) bool {
	return !m.cfg.DisableExploration && s.explorer.Stage() != explore.StageStable
}

// setExplorationPool gives the session its base cores plus an even share of
// the free cores.
func (m *Manager) setExplorationPool(s *session, al alloc.Allocation, free map[platform.KindID][]int, nExploring int) {
	pool := make(map[platform.KindID][]int, len(m.cfg.Platform.Kinds))
	for _, g := range al.Grants {
		kind, err := m.cfg.Platform.KindOf(g.Core)
		if err != nil {
			continue
		}
		pool[kind] = append(pool[kind], g.Core)
	}
	if nExploring > 0 {
		for kind, cores := range free {
			share := len(cores) / nExploring
			take := share
			if take > len(cores) {
				take = len(cores)
			}
			pool[kind] = append(pool[kind], cores[:take]...)
			free[kind] = cores[take:]
		}
	}
	s.pool = pool
	s.bound = make([]int, len(m.cfg.Platform.Kinds))
	for kind, cores := range pool {
		s.bound[kind] = len(cores)
	}
}

// startExploration picks the session's next configuration and pushes it.
func (m *Manager) startExploration(s *session) error {
	if s.bound == nil {
		return explore.ErrNoCandidates
	}
	rv, err := s.explorer.Next(s.bound)
	if err != nil {
		return err
	}
	grants, err := m.grantsFromPool(s, rv)
	if err != nil {
		return err
	}
	m.push(s, Decision{
		Instance:  s.instance,
		Vector:    rv,
		Threads:   m.threadsFor(s, rv),
		Grants:    grants,
		Exploring: true,
	})
	return nil
}

// grantsFromPool maps an exploration vector onto the session's reserved
// cores.
func (m *Manager) grantsFromPool(s *session, rv platform.ResourceVector) ([]alloc.CoreGrant, error) {
	var grants []alloc.CoreGrant
	for kindIdx, counts := range rv.Counts {
		kind := platform.KindID(kindIdx)
		next := 0
		for tIdx, cores := range counts {
			for c := 0; c < cores; c++ {
				if next >= len(s.pool[kind]) {
					return nil, fmt.Errorf("core: exploration vector %v exceeds pool of %s", rv, s.instance)
				}
				grants = append(grants, alloc.CoreGrant{Core: s.pool[kind][next], Threads: tIdx + 1})
				next++
			}
		}
	}
	return grants, nil
}

// pushParked pushes the zero allocation a quarantined session holds: no
// cores, no thread change. Threads stays 0 ("leave unchanged") so a resumed
// application does not thrash its parallelisation on readmission.
func (m *Manager) pushParked(s *session) {
	m.push(s, Decision{
		Instance: s.instance,
		Vector:   platform.NewResourceVector(m.cfg.Platform),
	})
}

// pushBase pushes an allocator decision unchanged.
func (m *Manager) pushBase(s *session, al alloc.Allocation) {
	m.push(s, Decision{
		Instance:        s.instance,
		Vector:          al.Point.Vector.Clone(),
		Threads:         m.threadsFor(s, al.Point.Vector),
		Grants:          al.Grants,
		CoAllocated:     al.CoAllocated,
		PredictedPowerW: al.Point.Power,
	})
}

// threadsFor derives the parallelisation degree from a vector: scalable and
// custom applications match threads to granted hardware threads; static
// applications cannot be rescaled (§4.1.3).
func (m *Manager) threadsFor(s *session, rv platform.ResourceVector) int {
	if s.adaptivity == workload.Static {
		return 0
	}
	return rv.Threads()
}

// push emits a decision if it differs from the session's last one.
func (m *Manager) push(s *session, d Decision) {
	if s.last != nil && sameDecision(*s.last, d) {
		return
	}
	m.seq++
	d.Seq = m.seq
	s.last = &d
	if m.cfg.Tracer.Enabled() { // guard: Key() builds a string
		m.cfg.Tracer.Emit(telemetry.Event{
			Kind:        telemetry.EvDecisionPushed,
			Instance:    d.Instance,
			App:         s.app,
			Vector:      d.Vector.Key(),
			Seq:         d.Seq,
			Power:       d.PredictedPowerW,
			Exploring:   d.Exploring,
			CoAllocated: d.CoAllocated,
			Vals:        [4]float64{float64(d.Threads), float64(len(d.Grants))},
		})
	}
	if mt := m.cfg.Metrics; mt != nil {
		mt.Decisions.Inc()
		if d.Exploring {
			mt.ExplorationSteps.Inc()
		}
	}
	if m.cfg.Journal.Enabled() {
		m.pendingOut = append(m.pendingOut, telemetry.EpochOutput{
			Instance:    d.Instance,
			Seq:         d.Seq,
			Vector:      d.Vector.Key(),
			Threads:     d.Threads,
			Cores:       len(d.Grants),
			Exploring:   d.Exploring,
			CoAllocated: d.CoAllocated,
			PredPowerW:  d.PredictedPowerW,
		})
	}
	for _, fn := range m.onDecide {
		fn(d)
	}
}

func sameDecision(a, b Decision) bool {
	if !a.Vector.Equal(b.Vector) || a.Threads != b.Threads ||
		a.CoAllocated != b.CoAllocated || a.Exploring != b.Exploring ||
		len(a.Grants) != len(b.Grants) {
		return false
	}
	// Fast path: the allocator assigns cores deterministically, so an
	// unchanged decision usually repeats the grant list element for element.
	// Only a positional mismatch pays for the clone+sort order-insensitive
	// compare — at churn scale, push runs once per session per epoch.
	same := true
	for i := range a.Grants {
		if a.Grants[i] != b.Grants[i] {
			same = false
			break
		}
	}
	if same {
		return true
	}
	ag := append([]alloc.CoreGrant(nil), a.Grants...)
	bg := append([]alloc.CoreGrant(nil), b.Grants...)
	sortGrants(ag)
	sortGrants(bg)
	for i := range ag {
		if ag[i] != bg[i] {
			return false
		}
	}
	return true
}

func sortGrants(gs []alloc.CoreGrant) {
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].Core != gs[j].Core {
			return gs[i].Core < gs[j].Core
		}
		return gs[i].Threads < gs[j].Threads
	})
}

// session looks up a registered session.
func (m *Manager) session(instance string) (*session, error) {
	s, ok := m.sessions[instance]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSession, instance)
	}
	return s, nil
}

// Stage returns a session's exploration maturity.
func (m *Manager) Stage(instance string) (explore.Stage, error) {
	s, err := m.session(instance)
	if err != nil {
		return 0, err
	}
	if m.cfg.DisableExploration {
		return explore.StageStable, nil
	}
	return s.explorer.Stage(), nil
}

// AllStable reports whether every session has reached the stable stage
// (Fig. 8's background shading).
func (m *Manager) AllStable() bool {
	for _, s := range m.sessions {
		if m.exploring(s) {
			return false
		}
	}
	return true
}

// Sessions returns summaries of all registered sessions in registration
// order.
func (m *Manager) Sessions() []SessionInfo {
	out := make([]SessionInfo, 0, len(m.sessions))
	for _, id := range m.order {
		if id == "" {
			continue
		}
		s := m.sessions[id]
		stage := s.explorer.Stage()
		if m.cfg.DisableExploration {
			stage = explore.StageStable
		}
		info := SessionInfo{
			Instance:         s.instance,
			App:              s.app,
			Adaptivity:       s.adaptivity,
			OwnUtility:       s.ownUtility,
			Stage:            stage,
			CoAllocated:      s.coAllocated,
			Measured:         s.explorer.Table().MeasuredCount(),
			Phase:            s.phase,
			Liveness:         s.liveness,
			LastReportAgeSec: -1, // embedders tracking liveness overlay the real age
			Utility:          s.lastUtility,
			Power:            s.lastPower,
		}
		if s.last != nil {
			info.Vector = s.last.Vector.Key()
			info.Threads = s.last.Threads
			info.Cores = len(s.last.Grants)
			info.Seq = s.last.Seq
			info.Exploring = s.last.Exploring
		}
		out = append(out, info)
	}
	return out
}

// StandingPowerW sums the predicted power of every session's standing
// decision — the same quantity the epoch recorder reports as the budget
// numerator. The fleet coordinator reads it per machine to grade actual
// load against the distributed per-machine power cap.
func (m *Manager) StandingPowerW() float64 {
	total := 0.0
	for _, id := range m.order {
		if id == "" {
			continue
		}
		if s := m.sessions[id]; s.last != nil {
			total += s.last.PredictedPowerW
		}
	}
	return total
}

// Table returns a snapshot of a session's learned operating points —
// harpctl uses this, and Fig. 8 snapshots it every 5 s.
func (m *Manager) Table(instance string) (*opoint.Table, error) {
	s, err := m.session(instance)
	if err != nil {
		return nil, err
	}
	return s.explorer.Table().Clone(), nil
}

// LearnedTables returns a deep copy of every application's operating-point
// table, keyed by application name — what /etc/harp accumulates over time
// and what Fig. 8 snapshots during the learning phase.
func (m *Manager) LearnedTables() map[string]*opoint.Table {
	out := make(map[string]*opoint.Table, len(m.explorers))
	for app, e := range m.explorers {
		out[app] = e.Table().Clone()
	}
	return out
}

// OwnUtility reports whether the session supplies its own utility metric.
func (m *Manager) OwnUtility(instance string) (bool, error) {
	s, err := m.session(instance)
	if err != nil {
		return false, err
	}
	return s.ownUtility, nil
}
