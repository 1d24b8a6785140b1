package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/harp-rm/harp/harp"
	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// Closed-loop timeouts: a lifecycle step that takes longer counts as failed.
const (
	activationTimeout = 5 * time.Second
	drainTimeout      = 5 * time.Second
	// setupRounds is how many times a run sets the server up; setup_s is
	// their median, so work moved into set-up shows without one slow
	// round deciding the figure.
	setupRounds = 5
)

// memSessionsUpload and memSessionsSolve are how many lifecycles of a
// window peak_rss_mb covers. The RM's resident memory grows with the
// sessions it has served (core.Manager remembers every ended instance), so
// memory is read over a fixed amount of work: over a fixed time, a faster
// RM would read as a memory regression.
const (
	memSessionsUpload = 2000
	memSessionsSolve  = 20000
)

// nasApps holds the nine NAS Intel applications' full design-space
// descriptions: the description file bytes a client uploads, and the lookup
// the output checks use.
type nasApps struct {
	plat  *platform.Platform
	names []string
	desc  map[string][]byte
	// points maps app → vector key → operating point; maxU is the app's v*.
	points map[string]map[string]opoint.OperatingPoint
	maxU   map[string]float64
}

func buildApps(plat *platform.Platform) (*nasApps, error) {
	profiles := workload.NASIntel()
	tables := harpsim.OfflineDSETablesParallel(plat, profiles, 1)
	a := &nasApps{
		plat:   plat,
		desc:   make(map[string][]byte),
		points: make(map[string]map[string]opoint.OperatingPoint),
		maxU:   make(map[string]float64),
	}
	for _, prof := range profiles {
		tbl := tables[prof.Name]
		tbl.Sort()
		var buf bytes.Buffer
		if err := tbl.Save(&buf); err != nil {
			return nil, err
		}
		a.names = append(a.names, prof.Name)
		a.desc[prof.Name] = buf.Bytes()
		byKey := make(map[string]opoint.OperatingPoint, len(tbl.Points))
		for _, op := range tbl.Points {
			byKey[op.Vector.Key()] = op
		}
		a.points[prof.Name] = byKey
		a.maxU[prof.Name] = tbl.MaxUtility()
	}
	return a, nil
}

// writeConfigDir lays the descriptions out as a /etc/harp-style opoints/
// directory (§4.3).
func (a *nasApps) writeConfigDir(dir string) error {
	od := filepath.Join(dir, "opoints")
	if err := os.MkdirAll(od, 0o755); err != nil {
		return err
	}
	for _, name := range a.names {
		if err := os.WriteFile(filepath.Join(od, name+".json"), a.desc[name], 0o644); err != nil {
			return err
		}
	}
	return nil
}

// checkActivation verifies one pushed decision: the vector key parses, names
// a point of the session's own table, and every grant lies in the platform's
// core range with a thread count the core kind supports.
func (a *nasApps) checkActivation(app string, act harp.Activation) error {
	rv, err := platform.ParseKey(a.plat, act.VectorKey)
	if err != nil {
		return fmt.Errorf("vector key: %w", err)
	}
	if _, ok := a.points[app][rv.Key()]; !ok {
		return fmt.Errorf("vector %s is not a point of %s's table", act.VectorKey, app)
	}
	for _, g := range act.Cores {
		kind, err := a.plat.KindOf(g.Core)
		if err != nil {
			return err
		}
		if g.Threads < 1 || g.Threads > a.plat.Kinds[kind].SMT {
			return fmt.Errorf("core %d granted %d threads", g.Core, g.Threads)
		}
	}
	return nil
}

// rmServer is one in-process harp.Server on a Unix socket, configured like
// harpd's defaults plus a state directory and a journal file.
type rmServer struct {
	srv     *harp.Server
	sock    string
	watch   *closeWatch
	journal *os.File
	jpath   string
	errc    chan error
}

func startServer(apps *nasApps, dir string, configDir string, l *layers) (*rmServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jpath := filepath.Join(dir, "journal.jsonl")
	jf, err := os.Create(jpath)
	if err != nil {
		return nil, err
	}
	var jw io.Writer = jf
	metrics := telemetry.NewMetrics(telemetry.NewRegistry())
	tracer := telemetry.NewTracer(0)
	cfg := harp.ServerConfig{
		Platform:           apps.plat,
		ConfigDir:          configDir,
		DisableExploration: !apps.plat.SimultaneousPMU,
		Tracer:             tracer,
		Metrics:            metrics,
		Energy:             telemetry.NewEnergyLedger(),
		StateDir:           filepath.Join(dir, "state"),
		AllocWarmStart:     true,
	}
	if l != nil {
		jw = l.journalWriter(jf)
		// The same solver core.NewManager builds for harpd, behind the
		// timing seam.
		a, err := alloc.New(apps.plat,
			alloc.WithTracer(tracer),
			alloc.WithMetrics(metrics),
			alloc.WithCache(alloc.DefaultCacheSize),
			alloc.WithWarmStart(true),
		)
		if err != nil {
			jf.Close()
			return nil, err
		}
		cfg.Allocator = l.allocator(a)
	}
	cfg.Journal = telemetry.NewJournal(jw)
	srv, err := harp.NewServer(cfg)
	if err != nil {
		jf.Close()
		return nil, err
	}
	sock := filepath.Join(dir, "rm.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		_ = srv.Close()
		jf.Close()
		return nil, err
	}
	watch := &closeWatch{Listener: ln, closed: make(chan struct{})}
	ln = watch
	if l != nil {
		ln = l.listener(ln)
	}
	s := &rmServer{srv: srv, sock: sock, watch: watch, journal: jf, jpath: jpath, errc: make(chan error, 1)}
	go func() { s.errc <- srv.Serve(ln) }()
	return s, nil
}

// closeWatch wraps the server's listener so that a lifecycle's drain wait
// wakes when the server closes a session connection — which harp.Server does
// right after deregistering the session — instead of sleeping between polls
// of Server.Sessions().
type closeWatch struct {
	net.Listener
	mu     sync.Mutex
	closed chan struct{} // closed and replaced on every connection close
}

func (w *closeWatch) Accept() (net.Conn, error) {
	c, err := w.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &watchedConn{Conn: c, w: w}, nil
}

// next returns a channel that the next connection close closes.
func (w *closeWatch) next() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

func (w *closeWatch) fire() {
	w.mu.Lock()
	close(w.closed)
	w.closed = make(chan struct{})
	w.mu.Unlock()
}

type watchedConn struct {
	net.Conn
	w    *closeWatch
	once sync.Once
}

func (c *watchedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.w.fire)
	return err
}

// close stops the server, waits for Serve to return and closes the journal.
func (s *rmServer) close() error {
	err := s.srv.Close()
	if serr := <-s.errc; err == nil {
		err = serr
	}
	if jerr := s.srv.JournalError(); err == nil {
		err = jerr
	}
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// listed reports whether the RM still lists the session.
func (s *rmServer) listed(instance string) bool {
	for _, info := range s.srv.Sessions() {
		if info.Instance == instance {
			return true
		}
	}
	return false
}

// sessionSample is one completed lifecycle.
type sessionSample struct {
	register time.Duration // Dial start → first activation delivered
	session  time.Duration // Dial start → RM no longer lists the session
	app      string
	cost     float64   // Cost of the first activation's point
	done     time.Time // when the lifecycle completed
	// Client-side splits, recorded for the traced run.
	dial, ackToAct, upload, closeToGone time.Duration
}

// churn drives the closed loop: nproc clients, each repeating one session
// lifecycle against the server until the window ends.
type churn struct {
	apps     *nasApps
	rm       *rmServer
	upload   bool
	pids     *atomic.Int64
	memLimit int64 // lifecycles peak_rss_mb covers (memSessions*)
	// completed counts this server's measured lifecycles and windows its
	// measured windows, across every window measure runs on it.
	completed atomic.Int64
	windows   int
}

// lifecycle runs Dial → first OnActivate → [upload] → two NotifyPhase →
// Close → wait until the RM no longer lists the session. A non-empty reason
// marks the lifecycle failed.
func (c *churn) lifecycle(app string) (sessionSample, string) {
	var smp sessionSample
	var (
		mu       sync.Mutex
		checkErr error
		first    = make(chan harp.Activation, 1)
		gotFirst bool
	)
	onActivate := func(act harp.Activation) {
		err := c.apps.checkActivation(app, act)
		mu.Lock()
		if err != nil && checkErr == nil {
			checkErr = err
		}
		if !gotFirst {
			gotFirst = true
			first <- act
		}
		mu.Unlock()
	}
	t0 := time.Now()
	cl, err := harp.Dial(c.rm.sock, harp.Registration{
		App:        app,
		PID:        int(c.pids.Add(1)),
		Adaptivity: harp.Scalable,
		OnActivate: onActivate,
	})
	if err != nil {
		if errors.Is(err, harp.ErrRegistrationRejected) {
			return smp, "registration rejected"
		}
		return smp, "dial"
	}
	tDial := time.Now()
	instance := cl.SessionID()
	var act harp.Activation
	select {
	case act = <-first:
	case <-time.After(activationTimeout):
		_ = cl.Close()
		return smp, "activation timeout"
	}
	tAct := time.Now()
	reason := ""
	if c.upload {
		if err := cl.UploadDescription(bytes.NewReader(c.apps.desc[app])); err != nil {
			reason = "client write"
		}
	}
	tUp := time.Now()
	for _, phase := range [...]string{"compute", "exchange"} {
		if err := cl.NotifyPhase(phase); err != nil {
			reason = "client write"
		}
	}
	tClose := time.Now()
	_ = cl.Close() // always nil; a dead RM shows up in the drain wait
	deadline := time.NewTimer(drainTimeout)
	defer deadline.Stop()
	for {
		// Take the close channel before looking, so a close between the
		// look and the wait still wakes us.
		next := c.rm.watch.next()
		if !c.rm.listed(instance) {
			break
		}
		select {
		case <-next:
		case <-deadline.C:
			return smp, "drain timeout"
		}
	}
	tGone := time.Now()
	mu.Lock()
	if checkErr != nil && reason == "" {
		reason = "activation check: " + checkErr.Error()
	}
	mu.Unlock()
	if reason != "" {
		return smp, reason
	}
	// The activation check above guarantees the point exists.
	smp.app = app
	smp.cost = c.apps.points[app][act.VectorKey].Cost(c.apps.maxU[app])
	smp.done = tGone
	smp.register = tAct.Sub(t0)
	smp.session = tGone.Sub(t0)
	smp.dial = tDial.Sub(t0)
	smp.ackToAct = tAct.Sub(tDial)
	smp.upload = tUp.Sub(tAct)
	smp.closeToGone = tGone.Sub(tClose)
	return smp, ""
}

// windowStats is one measured window's outcome.
type windowStats struct {
	samples   []sessionSample
	attempted int
	failures  map[string]int
	allocB    uint64
	gcFrac    float64
	smp       *sampler
}

// sliceFigures are per-slice figures, each the median across the complete
// slices of one or more windows.
type sliceFigures struct {
	rate, cpuMs                  float64
	reg50, reg95, sess50, sess95 float64
	rss                          float64
	rates                        []float64 // per slice, logged
}

func figures(windows ...windowStats) sliceFigures {
	var rate, cpu, r50, r95, s50, s95 []float64
	var smps []*sampler
	for _, ws := range windows {
		smps = append(smps, ws.smp)
		k := ws.smp.complete()
		reg := make([][]float64, k)
		sess := make([][]float64, k)
		for _, s := range ws.samples {
			if i := ws.smp.sliceOf(s.done); i >= 0 {
				reg[i] = append(reg[i], ms(s.register))
				sess[i] = append(sess[i], ms(s.session))
			}
		}
		for i := 0; i < k; i++ {
			n := float64(len(reg[i]))
			if n == 0 {
				continue
			}
			a, b := ws.smp.edges[i], ws.smp.edges[i+1]
			rate = append(rate, n/b.at.Sub(a.at).Seconds())
			cpu = append(cpu, ms(b.cpu-a.cpu)/n)
			p50, p95, _ := latencySummary(reg[i])
			r50, r95 = append(r50, p50), append(r95, p95)
			p50, p95, _ = latencySummary(sess[i])
			s50, s95 = append(s50, p50), append(s95, p95)
		}
	}
	return sliceFigures{
		rate: median(rate), cpuMs: median(cpu),
		reg50: median(r50), reg95: median(r95),
		sess50: median(s50), sess95: median(s95),
		rss: peakRSS(smps...), rates: rate,
	}
}

// measure runs the closed loop for the given duration, cut into the given
// number of slices. Each client draws its applications from its own stream,
// derived from the seed and the number of windows this server has run, so
// the inputs depend only on the seed.
func (c *churn) measure(seed int64, d time.Duration, slices int) windowStats {
	clients := runtime.NumCPU()
	stream := seed*7919 + int64(c.windows*clients)
	c.windows++
	type clientOut struct {
		samples   []sessionSample
		attempted int
		failures  map[string]int
	}
	outs := make([]clientOut, clients)
	rt0 := readRuntime()
	smp := startSampler(d, slices, func() bool { return c.completed.Load() >= c.memLimit })
	end := smp.start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(stream + int64(i)))
			out := clientOut{failures: make(map[string]int)}
			for time.Now().Before(end) {
				app := c.apps.names[rng.Intn(len(c.apps.names))]
				out.attempted++
				s, reason := c.lifecycle(app)
				if reason != "" {
					out.failures[reason]++
					continue
				}
				out.samples = append(out.samples, s)
				c.completed.Add(1)
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	smp.stop()
	ws := windowStats{smp: smp, failures: make(map[string]int)}
	rt1 := readRuntime()
	ws.allocB = rt1.allocBytes - rt0.allocBytes
	if dc := rt1.cpuSec - rt0.cpuSec; dc > 0 {
		ws.gcFrac = (rt1.gcSec - rt0.gcSec) / dc
	}
	for _, o := range outs {
		ws.samples = append(ws.samples, o.samples...)
		ws.attempted += o.attempted
		for k, v := range o.failures {
			ws.failures[k] += v
		}
	}
	return ws
}

// warmUp runs every application's lifecycle twice, so each application's
// table is known to the RM and the code paths are warm before timing.
func (c *churn) warmUp() error {
	for round := 0; round < 2; round++ {
		for _, app := range c.apps.names {
			if _, reason := c.lifecycle(app); reason != "" {
				return fmt.Errorf("warm-up %s: %s", app, reason)
			}
		}
	}
	return nil
}

// setUp builds everything a socket window needs: the application
// descriptions, the configuration directory (unless sessions upload), the
// server and a warm-up.
func setUp(cfg runConfig, dir string, l *layers, pids *atomic.Int64) (*churn, error) {
	apps, err := buildApps(platform.RaptorLake())
	if err != nil {
		return nil, err
	}
	configDir := ""
	memLimit := int64(memSessionsSolve)
	if cfg.upload {
		memLimit = memSessionsUpload
	} else {
		configDir = filepath.Join(dir, "etc-harp")
		if err := apps.writeConfigDir(configDir); err != nil {
			return nil, err
		}
	}
	rm, err := startServer(apps, dir, configDir, l)
	if err != nil {
		return nil, err
	}
	c := &churn{apps: apps, rm: rm, upload: cfg.upload, pids: pids, memLimit: memLimit}
	if err := c.warmUp(); err != nil {
		_ = rm.close()
		return nil, err
	}
	return c, nil
}

// socketFigures closes the server and records the socket path's
// end-to-end metrics over the windows measured on it. It returns their
// resident memory (peak per slice, median of slices).
func socketFigures(c *churn, windows []windowStats, out *outcome) (float64, error) {
	if err := c.rm.close(); err != nil {
		return 0, err
	}
	var samples []sessionSample
	for _, ws := range windows {
		recordWindow(out, ws)
		samples = append(samples, ws.samples...)
	}
	if len(samples) == 0 {
		return 0, nil
	}
	f := figures(windows...)
	out.set("sessions_per_s", f.rate, "1/s")
	out.set("cpu_ms_per_session", f.cpuMs, "ms")
	out.set("register_p50_ms", f.reg50, "ms")
	out.set("register_p95_ms", f.reg95, "ms")
	out.set("session_p50_ms", f.sess50, "ms")
	out.set("session_p95_ms", f.sess95, "ms")
	out.log["slice_sessions_per_s"] = f.rates
	var regs, sess []float64
	for _, s := range samples {
		regs = append(regs, ms(s.register))
		sess = append(sess, ms(s.session))
	}
	_, _, out.log["register_tail"] = latencySummary(regs)
	_, _, out.log["session_tail"] = latencySummary(sess)
	out.set("plan_cost", meanCost(samples), "W")
	js, err := readJournalStats(c.rm.jpath, 0)
	if err != nil {
		return 0, err
	}
	out.log["degraded_epochs"] = js.degraded
	return f.rss, nil
}

// recordWindow folds a window's attempts and failures into the outcome; a
// window without a single completed lifecycle is itself a failure.
func recordWindow(out *outcome, ws windowStats) {
	out.add(ws.attempted, ws.failures)
	if len(ws.samples) == 0 {
		out.fail("no completed lifecycle")
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// journalStats summarises a decision journal.
type journalStats struct {
	epochs, useful, degraded, computed, lambdaIters int
}

// readJournalStats summarises the journal file, skipping the first skip
// records (the warm-up's epochs).
func readJournalStats(path string, skip int) (journalStats, error) {
	var js journalStats
	f, err := os.Open(path)
	if err != nil {
		return js, err
	}
	defer f.Close()
	err = js.scan(f, skip)
	return js, err
}

// scan folds a JSONL journal into the summary one record at a time: the
// journal of a long solve-churn run reaches a hundred megabytes or more, so
// records are not kept.
func (js *journalStats) scan(r io.Reader, skip int) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for n := 0; sc.Scan(); n++ {
		if n < skip {
			continue
		}
		var rec telemetry.EpochRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("journal record %d: %w", n+1, err)
		}
		js.epochs++
		if len(rec.Outputs) > 0 {
			js.useful++
		}
		switch rec.SolveSource {
		case "", "cached":
		case "degraded-greedy", "degraded-stale", "frozen":
			js.degraded++
		default:
			js.computed++
			js.lambdaIters += rec.LambdaIters
		}
	}
	return sc.Err()
}
