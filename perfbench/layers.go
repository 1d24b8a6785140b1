package main

// The traced run. Every per-layer number comes from seams the program
// already exposes — the net.Listener handed to Server.Serve, the
// ServerConfig.Allocator, the io.Writer behind telemetry.NewJournal,
// core.Config.Store, harpsim.Options.Metrics and Options.Journal — or from
// timing calls into a module's public functions. The benchmark adds no spans
// inside the program.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/harp-rm/harp/harpsim"
	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/core"
	"github.com/harp-rm/harp/internal/explore"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/proto"
	"github.com/harp-rm/harp/internal/store"
	"github.com/harp-rm/harp/internal/telemetry"
	"github.com/harp-rm/harp/internal/workload"
)

// Frame types whose codec cost the traced run reports.
var codecTypes = []proto.MsgType{proto.MsgRegister, proto.MsgOperatingPoints, proto.MsgPhaseChange, proto.MsgActivate}

// codecName is the metric suffix for a frame type.
func codecName(t proto.MsgType) string {
	switch t {
	case proto.MsgOperatingPoints:
		return "opoints"
	case proto.MsgPhaseChange:
		return "phase"
	default:
		return string(t)
	}
}

// Bounds on what the traced run keeps for post-processing.
const (
	framesKept    = 16  // recorded frames per type for the codec timings
	replaySession = 300 // sessions replayed straight into core.Manager
)

// rmEvent is one manager-visible event in the order the server read it.
type rmEvent struct {
	kind proto.MsgType // register, opoints, phase or exit
	conn int64
	body []byte // register and phase bodies (small)
}

// layers collects the traced run's seam measurements. Counters are atomics
// or guarded by mu: connection handlers, the measure loop and the manager
// run on different goroutines.
type layers struct {
	bytesIn, bytesOut, framesOut atomic.Int64
	writeNs                      atomic.Int64
	connIDs                      atomic.Int64

	mu          sync.Mutex
	recording   bool
	frameCount  map[proto.MsgType]int
	frameBytes  map[proto.MsgType]int
	frames      map[proto.MsgType][][]byte
	events      []rmEvent
	solveDurs   []time.Duration
	cached      int
	solveErrs   int
	lambdaIters int
	computed    int
	jWrites     int
	jBytes      int
	jTime       time.Duration
}

func newLayers() *layers {
	return &layers{
		frameCount: make(map[proto.MsgType]int),
		frameBytes: make(map[proto.MsgType]int),
		frames:     make(map[proto.MsgType][][]byte),
	}
}

// record switches per-window accounting on: everything before it (the
// warm-up) is excluded from the per-session figures.
func (l *layers) record() {
	l.mu.Lock()
	l.recording = true
	l.mu.Unlock()
	l.bytesIn.Store(0)
	l.bytesOut.Store(0)
	l.framesOut.Store(0)
	l.writeNs.Store(0)
}

func (l *layers) listener(ln net.Listener) net.Listener { return &tracedListener{Listener: ln, l: l} }

type tracedListener struct {
	net.Listener
	l *layers
}

func (tl *tracedListener) Accept() (net.Conn, error) {
	c, err := tl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, l: tl.l, id: tl.l.connIDs.Add(1)}, nil
}

// tracedConn counts the server's socket traffic and splits the inbound
// byte stream back into frames, recording their types, sizes and the order
// the server read them in.
type tracedConn struct {
	net.Conn
	l      *layers
	id     int64
	in     frameSplitter
	exited bool
	// nextOut is set after a 4-byte header write: proto.Write writes each
	// frame as a header then a body.
	nextOut bool
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.bytesIn.Add(int64(n))
	c.in.feed(p[:n], c.inbound)
	if err == io.EOF && !c.exited {
		c.exited = true
		c.l.event(rmEvent{kind: proto.MsgExit, conn: c.id})
	}
	return n, err
}

func (c *tracedConn) inbound(frame []byte) {
	typ := frameType(frame)
	c.l.frame(typ, frame)
	switch typ {
	case proto.MsgRegister, proto.MsgPhaseChange:
		c.l.event(rmEvent{kind: typ, conn: c.id, body: append([]byte(nil), frame...)})
	case proto.MsgOperatingPoints:
		c.l.event(rmEvent{kind: typ, conn: c.id})
	case proto.MsgExit:
		if !c.exited {
			c.exited = true
			c.l.event(rmEvent{kind: typ, conn: c.id})
		}
	}
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.l.writeNs.Add(int64(time.Since(t0)))
	c.l.bytesOut.Add(int64(n))
	if len(p) == 4 {
		c.l.framesOut.Add(1)
		c.nextOut = true
	} else if c.nextOut {
		c.nextOut = false
		c.l.frame(frameType(p), p)
	}
	return n, err
}

// frameSplitter reassembles length-prefixed frames from arbitrary chunks.
type frameSplitter struct {
	hdr    [4]byte
	hn     int
	body   []byte
	need   int
	inBody bool
}

func (s *frameSplitter) feed(p []byte, emit func([]byte)) {
	for len(p) > 0 {
		if !s.inBody {
			k := copy(s.hdr[s.hn:], p)
			s.hn += k
			p = p[k:]
			if s.hn == 4 {
				s.need = int(binary.BigEndian.Uint32(s.hdr[:]))
				s.body = s.body[:0]
				s.hn = 0
				s.inBody = true
			}
			continue
		}
		k := min(len(p), s.need-len(s.body))
		s.body = append(s.body, p[:k]...)
		p = p[k:]
		if len(s.body) == s.need {
			s.inBody = false
			emit(s.body)
		}
	}
}

// frameType reads the message type from an envelope proto.Write produced:
// {"type":"<type>",...}.
func frameType(frame []byte) proto.MsgType {
	const prefix = `{"type":"`
	if !bytes.HasPrefix(frame, []byte(prefix)) {
		return ""
	}
	rest := frame[len(prefix):]
	if i := bytes.IndexByte(rest, '"'); i >= 0 {
		return proto.MsgType(rest[:i])
	}
	return ""
}

func (l *layers) frame(typ proto.MsgType, frame []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.recording {
		return
	}
	l.frameCount[typ]++
	l.frameBytes[typ] += len(frame) + 4
	if len(l.frames[typ]) < framesKept {
		l.frames[typ] = append(l.frames[typ], append([]byte(nil), frame...))
	}
}

func (l *layers) event(ev rmEvent) {
	l.mu.Lock()
	if l.recording {
		l.events = append(l.events, ev)
	}
	l.mu.Unlock()
}

func (l *layers) allocator(a *alloc.Allocator) *timedAllocator {
	return &timedAllocator{a: a, onSolve: l.solve}
}

func (l *layers) solve(d time.Duration, st alloc.Stats, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.recording {
		return
	}
	l.solveDurs = append(l.solveDurs, d)
	switch {
	case err != nil:
		l.solveErrs++
	case st.Source == alloc.SourceCached:
		l.cached++
	default:
		l.computed++
		l.lambdaIters += st.LambdaIters
	}
}

// timedAllocator times every solve of the allocator core.NewManager would
// have built. It forwards the optional hooks the manager probes for (the
// epoch deadline, cache accounting and snapshot cache export); only the
// greedy fallback rung is lost, because the manager builds that one solely
// for its own default allocator.
type timedAllocator struct {
	a       *alloc.Allocator
	onSolve func(time.Duration, alloc.Stats, error)
	total   time.Duration // cumulative solve time, read by the core replay
}

func (t *timedAllocator) AllocateWithStats(apps []alloc.AppInput) ([]alloc.Allocation, alloc.Stats, error) {
	t0 := time.Now()
	out, st, err := t.a.AllocateWithStats(apps)
	d := time.Since(t0)
	t.total += d
	if t.onSolve != nil {
		t.onSolve(d, st, err)
	}
	return out, st, err
}

func (t *timedAllocator) SetOverBudget(check func() bool)          { t.a.SetOverBudget(check) }
func (t *timedAllocator) CacheStats() alloc.CacheStats             { return t.a.CacheStats() }
func (t *timedAllocator) ExportCache(n int) []alloc.CachedSolution { return t.a.ExportCache(n) }
func (t *timedAllocator) SeedCache(e []alloc.CachedSolution)       { t.a.SeedCache(e) }

func (l *layers) journalWriter(w io.Writer) io.Writer {
	return &timedWriter{w: w, onWrite: l.journalWrite}
}

func (l *layers) journalWrite(n int, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jWrites++ // counted from the start: the warm-up's records are skipped by count
	if l.recording {
		l.jBytes += n
		l.jTime += d
	}
}

// timedWriter times the writes behind a journal; telemetry.Journal
// serialises them.
type timedWriter struct {
	w       io.Writer
	onWrite func(n int, d time.Duration)
	total   time.Duration // cumulative write time, read by the core replay
}

func (t *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(p)
	d := time.Since(t0)
	t.total += d
	if t.onWrite != nil {
		t.onWrite(n, d)
	}
	return n, err
}

// timedStore times the manager's WAL appends (the core.Config.Store seam).
type timedStore struct {
	s       *store.Store
	appends int
	total   time.Duration
}

func (t *timedStore) Append(rec store.Record) error {
	t0 := time.Now()
	err := t.s.Append(rec)
	t.total += time.Since(t0)
	t.appends++
	return err
}

// runtimeSample is a reading of the Go runtime's allocation and CPU
// counters.
type runtimeSample struct {
	allocBytes    uint64
	gcSec, cpuSec float64
}

var runtimeMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcSec = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.cpuSec = s[2].Value.Float64()
	}
	return r
}

// runSocketTraced measures half the window untraced and half traced, then
// derives the per-layer numbers from the traced half's seams, a replay of
// its event order into core.Manager, and timed calls on its recorded frames
// and the applications' descriptions.
func runSocketTraced(cfg runConfig, window time.Duration, pids *atomic.Int64, out *outcome) error {
	half := window / 2

	c, err := setUp(cfg, filepath.Join(cfg.dir, "untraced"), nil, pids)
	if err != nil {
		return err
	}
	plain := c.measure(cfg.seed, half, windowSlices)
	if err := c.rm.close(); err != nil {
		return err
	}
	recordWindow(out, plain)
	untracedJournal, err := readJournalStats(c.rm.jpath, 0)
	if err != nil {
		return err
	}

	l := newLayers()
	c, err = setUp(cfg, filepath.Join(cfg.dir, "traced"), l, pids)
	if err != nil {
		return err
	}
	l.mu.Lock()
	warmRecords := l.jWrites
	l.mu.Unlock()
	l.record()
	traced := c.measure(cfg.seed, half, windowSlices)
	if err := c.rm.close(); err != nil {
		return err
	}
	recordWindow(out, traced)
	if len(plain.samples) == 0 || len(traced.samples) == 0 {
		return nil
	}
	js, err := readJournalStats(c.rm.jpath, warmRecords)
	if err != nil {
		return err
	}

	nPlain := float64(len(plain.samples))
	n := float64(len(traced.samples))
	perSession := func(name string, v float64, unit string) { out.set(name, v/n, unit) }

	// Tracing overhead and the decision-quality guard in both halves.
	plainRate := figures(plain).rate
	tracedRate := figures(traced).rate
	out.set("trace.sessions_per_s_untraced", plainRate, "1/s")
	out.set("trace.sessions_per_s_traced", tracedRate, "1/s")
	out.set("trace.overhead_frac", 1-tracedRate/plainRate, "frac")
	out.set("trace.plan_cost_untraced", meanCost(plain.samples), "W")
	out.set("trace.plan_cost_traced", meanCost(traced.samples), "W")
	out.set("core.degraded_epochs_untraced", float64(untracedJournal.degraded), "count")

	// harp: client-side splits and the listener wrapper.
	var dial, ack, up, gone []float64
	for _, s := range traced.samples {
		dial = append(dial, ms(s.dial))
		ack = append(ack, ms(s.ackToAct))
		up = append(up, ms(s.upload))
		gone = append(gone, ms(s.closeToGone))
	}
	out.set("harp.dial_ms", median(dial), "ms")
	out.set("harp.ack_to_activation_ms", median(ack), "ms")
	out.set("harp.close_to_gone_ms", median(gone), "ms")
	if c.upload {
		out.log["harp.upload_call_ms"] = median(up) // upload-churn only, so not a result metric
	}
	perSession("harp.server_bytes_in_per_session", float64(l.bytesIn.Load()), "B")
	perSession("harp.server_bytes_out_per_session", float64(l.bytesOut.Load()), "B")
	perSession("harp.server_frames_out_per_session", float64(l.framesOut.Load()), "count")
	perSession("harp.server_write_ms_per_session", ms(time.Duration(l.writeNs.Load())), "ms")

	// core, from the journal.
	perSession("core.epochs_per_session", float64(js.epochs), "count")
	out.set("core.useful_epoch_ratio", ratio(js.useful, js.epochs), "frac")
	out.set("core.degraded_epochs", float64(js.degraded), "count")

	// alloc, from the allocator seam.
	l.mu.Lock()
	var solveMs []float64
	var solveTotal float64
	for _, d := range l.solveDurs {
		solveMs = append(solveMs, ms(d))
		solveTotal += ms(d)
	}
	perSession("alloc.solves_per_session", float64(len(solveMs)), "count")
	perSession("alloc.solve_ms_per_session", solveTotal, "ms")
	out.set("alloc.solve_p50_ms", median(solveMs), "ms")
	out.set("alloc.cache_hit_ratio", ratio(l.cached, len(solveMs)), "frac")
	out.set("alloc.lambda_iters_per_solve", ratio(l.lambdaIters, l.computed), "count")
	out.set("alloc.errors", float64(l.solveErrs), "count")

	// telemetry, from the journal writer seam.
	perSession("telemetry.journal_bytes_per_session", float64(l.jBytes), "B")
	perSession("telemetry.journal_write_ms_per_session", ms(l.jTime), "ms")
	frames, frameCount, frameBytes := l.frames, l.frameCount, l.frameBytes
	events := l.events
	l.mu.Unlock()

	// go runtime, from the untraced half.
	out.set("go.alloc_bytes_per_session", float64(plain.allocB)/nPlain, "B")
	out.set("go.gc_cpu_frac", plain.gcFrac, "frac")

	// proto: the codec on the run's recorded frames, and on the frames the
	// nine descriptions travel in, whether or not this run uploads them.
	opFrames, err := descFrames(c.apps)
	if err != nil {
		return err
	}
	frames[proto.MsgOperatingPoints] = opFrames
	frameCount[proto.MsgOperatingPoints], frameBytes[proto.MsgOperatingPoints] = len(opFrames), 0
	for _, f := range opFrames {
		frameBytes[proto.MsgOperatingPoints] += len(f) + 4
	}
	for _, typ := range codecTypes {
		name := codecName(typ)
		if frameCount[typ] == 0 {
			return fmt.Errorf("traced half recorded no %s frame", typ)
		}
		out.set("proto.frame_bytes."+name, float64(frameBytes[typ])/float64(frameCount[typ]), "B")
		enc, dec, err := codecTimes(typ, frames[typ])
		if err != nil {
			return err
		}
		out.set("proto.encode_us."+name, enc, "us")
		out.set("proto.decode_us."+name, dec, "us")
	}

	// opoint and explore: timed calls on the descriptions.
	if err := tableTimes(c.apps, out); err != nil {
		return err
	}

	// core and store: replay the traced half's event order.
	if err := replayCore(cfg, c.apps, events, out); err != nil {
		return err
	}
	out.log["traced_sessions"] = len(traced.samples)
	out.log["untraced_sessions"] = len(plain.samples)
	return nil
}

// descFrames returns the frame each description travels in, as
// Client.UploadDescription writes it, without the length header.
func descFrames(apps *nasApps) ([][]byte, error) {
	var frames [][]byte
	for _, name := range apps.names {
		tbl, err := opoint.Load(bytes.NewReader(apps.desc[name]))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := proto.Write(&buf, proto.MsgOperatingPoints, proto.OperatingPoints{Table: tbl}); err != nil {
			return nil, err
		}
		frames = append(frames, buf.Bytes()[4:])
	}
	return frames, nil
}

// meanCost is plan_cost: the mean Cost of each session's first activation,
// averaged per application first and then across applications, so the
// seed's application mix does not weigh in.
func meanCost(samples []sessionSample) float64 {
	sum := make(map[string]float64)
	n := make(map[string]int)
	for _, s := range samples {
		sum[s.app] += s.cost
		n[s.app]++
	}
	var total float64
	for app, v := range sum {
		total += v / float64(n[app])
	}
	return total / float64(max(len(sum), 1))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// codecTimes times proto.Write and proto.NewReader/DecodeBody on recorded
// frames of one type and returns the median microseconds of each.
func codecTimes(typ proto.MsgType, frames [][]byte) (encUs, decUs float64, err error) {
	const rounds = 5
	var enc, dec []float64
	var wire bytes.Buffer
	for _, f := range frames {
		wire.Reset()
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(f)))
		wire.Write(hdr[:])
		wire.Write(f)
		raw := wire.Bytes()
		for r := 0; r < rounds; r++ {
			body := bodyFor(typ)
			t0 := time.Now()
			env, err := proto.NewReader(bytes.NewReader(raw)).Read()
			if err == nil {
				err = proto.DecodeBody(env, typ, body)
			}
			d := time.Since(t0)
			if err != nil {
				return 0, 0, fmt.Errorf("decode recorded %s frame: %w", typ, err)
			}
			dec = append(dec, float64(d)/float64(time.Microsecond))
			t0 = time.Now()
			err = proto.Write(io.Discard, typ, body)
			d = time.Since(t0)
			if err != nil {
				return 0, 0, fmt.Errorf("encode %s: %w", typ, err)
			}
			enc = append(enc, float64(d)/float64(time.Microsecond))
		}
	}
	return median(enc), median(dec), nil
}

func bodyFor(typ proto.MsgType) any {
	switch typ {
	case proto.MsgRegister:
		return &proto.Register{}
	case proto.MsgOperatingPoints:
		return &proto.OperatingPoints{}
	case proto.MsgPhaseChange:
		return &proto.PhaseChange{}
	default:
		return &proto.Activate{}
	}
}

// tableTimes times opoint.Load, Table.Validate, Table.ParetoPoints and
// Explorer.SeedTable on fresh copies of every description.
func tableTimes(apps *nasApps, out *outcome) error {
	const rounds = 3
	var load, validate, pareto, seed []float64
	for r := 0; r < rounds; r++ {
		for _, name := range apps.names {
			t0 := time.Now()
			tbl, err := opoint.Load(bytes.NewReader(apps.desc[name]))
			load = append(load, ms(time.Since(t0)))
			if err != nil {
				return err
			}
			t0 = time.Now()
			err = tbl.Validate(apps.plat)
			validate = append(validate, ms(time.Since(t0)))
			if err != nil {
				return err
			}
			t0 = time.Now()
			tbl.ParetoPoints()
			pareto = append(pareto, ms(time.Since(t0)))

			fresh, err := opoint.Load(bytes.NewReader(apps.desc[name]))
			if err != nil {
				return err
			}
			e := explore.New(apps.plat, name, explore.Config{})
			t0 = time.Now()
			e.SeedTable(fresh)
			seed = append(seed, ms(time.Since(t0)))
		}
	}
	out.set("opoint.load_ms", median(load), "ms")
	out.set("opoint.validate_ms", median(validate), "ms")
	out.set("opoint.pareto_ms", median(pareto), "ms")
	out.set("explore.seed_ms", median(seed), "ms")
	return nil
}

// replayCore feeds the traced half's event order straight into a
// core.Manager configured like the server's, timing each call and
// subtracting the time its allocator, store and journal seams report.
func replayCore(cfg runConfig, apps *nasApps, events []rmEvent, out *outcome) error {
	dir := filepath.Join(cfg.dir, "replay")
	st, err := store.Open(filepath.Join(dir, "state"), store.Options{})
	if err != nil {
		return err
	}
	defer st.Close() // scratch state, never read back
	a, err := alloc.New(apps.plat, alloc.WithCache(alloc.DefaultCacheSize), alloc.WithWarmStart(true))
	if err != nil {
		return err
	}
	ta := &timedAllocator{a: a}
	ts := &timedStore{s: st}
	tw := &timedWriter{w: io.Discard}
	start := time.Now()
	coreCfg := core.Config{
		Platform:     apps.plat,
		Allocator:    ta,
		Journal:      telemetry.NewJournal(tw),
		Tracer:       telemetry.NewTracer(0),
		Metrics:      telemetry.NewMetrics(telemetry.NewRegistry()),
		Energy:       telemetry.NewEnergyLedger(),
		Store:        ts,
		LatencyClock: func() time.Duration { return time.Since(start) },
	}
	if !cfg.upload {
		offline, err := opoint.LoadDir(filepath.Join(cfg.dir, "traced", "etc-harp", "opoints"))
		if err != nil {
			return err
		}
		coreCfg.OfflineTables = offline
	}
	m, err := core.NewManager(coreCfg)
	if err != nil {
		return err
	}
	// Warm-up: every application once, as the server's warm-up did.
	for i, name := range apps.names {
		inst := fmt.Sprintf("%s/warm%d", name, i)
		if err := m.Register(inst, name, workload.Scalable, false); err != nil {
			return err
		}
		if coreCfg.OfflineTables == nil {
			tbl, err := opoint.Load(bytes.NewReader(apps.desc[name]))
			if err != nil {
				return err
			}
			if err := m.UploadTable(inst, tbl); err != nil {
				return err
			}
		}
		if err := m.Deregister(inst); err != nil {
			return err
		}
	}
	walPath := filepath.Join(dir, "state", "wal.log")
	wal0 := fileSize(walPath)

	type connState struct{ instance, app string }
	conns := make(map[int64]*connState)
	times := map[proto.MsgType][]float64{}
	var self time.Duration
	appends0 := ts.appends
	sessions := 0
	for _, ev := range events {
		cs := conns[ev.conn]
		if ev.kind == proto.MsgRegister {
			if sessions == replaySession {
				continue
			}
			var reg proto.Register
			if err := json.Unmarshal(envelopeBody(ev.body), &reg); err != nil {
				return fmt.Errorf("replay register: %w", err)
			}
			cs = &connState{instance: fmt.Sprintf("%s/%d", reg.App, reg.PID), app: reg.App}
			conns[ev.conn] = cs
			sessions++
		}
		if cs == nil {
			continue // a session past the replay bound
		}
		var tbl *opoint.Table
		if ev.kind == proto.MsgOperatingPoints {
			if tbl, err = opoint.Load(bytes.NewReader(apps.desc[cs.app])); err != nil {
				return err
			}
		}
		var phase proto.PhaseChange
		if ev.kind == proto.MsgPhaseChange {
			if err := json.Unmarshal(envelopeBody(ev.body), &phase); err != nil {
				return fmt.Errorf("replay phase: %w", err)
			}
		}
		a0, s0, j0 := ta.total, ts.total, tw.total
		t0 := time.Now()
		switch ev.kind {
		case proto.MsgRegister:
			err = m.Register(cs.instance, cs.app, workload.Scalable, false)
		case proto.MsgOperatingPoints:
			err = m.UploadTable(cs.instance, tbl)
		case proto.MsgPhaseChange:
			err = m.PhaseChange(cs.instance, phase.Phase)
		case proto.MsgExit:
			err = m.Deregister(cs.instance)
			delete(conns, ev.conn)
		}
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay %s %s: %w", ev.kind, cs.instance, err)
		}
		times[ev.kind] = append(times[ev.kind], ms(d))
		self += d - (ta.total - a0) - (ts.total - s0) - (tw.total - j0)
	}
	if sessions == 0 {
		return fmt.Errorf("replay: no sessions recorded")
	}
	n := float64(sessions)
	out.set("core.register_ms", median(times[proto.MsgRegister]), "ms")
	if len(times[proto.MsgOperatingPoints]) > 0 {
		out.log["core.upload_ms"] = median(times[proto.MsgOperatingPoints]) // upload-churn only
	}
	out.set("core.phase_ms", median(times[proto.MsgPhaseChange]), "ms")
	out.set("core.deregister_ms", median(times[proto.MsgExit]), "ms")
	out.set("core.self_ms_per_session", ms(self)/n, "ms")
	out.set("store.appends_per_session", float64(ts.appends-appends0)/n, "count")
	out.set("store.append_ms_per_session", ms(ts.total)/n, "ms")
	out.set("store.wal_bytes_per_session", float64(fileSize(walPath)-wal0)/n, "B")
	out.log["replayed_sessions"] = sessions
	return nil
}

// envelopeBody extracts the body of a recorded envelope.
func envelopeBody(frame []byte) []byte {
	var env proto.Envelope
	if err := json.Unmarshal(frame, &env); err != nil {
		return nil
	}
	return env.Body
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// simTraced runs the scenarios untraced for half the window and with the
// Options.Metrics and Options.Journal seams for the other half, then once
// under PolicyCFS for the substrate's share of host time. Figures the
// socket path also reports carry a _sim suffix.
func simTraced(cfg runConfig, scs []harpsim.Scenario, window time.Duration, out *outcome) error {
	halves := make([][]simPass, 2)
	for i, traced := range []bool{false, true} {
		r := newSimRunner(scs, cfg.seed, harpsim.PolicyHARP, traced, out)
		r.run(window / 2)
		r.finish()
		halves[i] = r.passes
	}
	plain, traced := halves[0], halves[1]
	if plain[0].energyJ != traced[0].energyJ {
		out.fail("traced pass changed the simulated energy")
	}
	cfsRun := newSimRunner(scs, cfg.seed, harpsim.PolicyCFS, false, out)
	cfsRun.finish()
	cfs := cfsRun.passes[0]

	speed := func(ps []simPass) float64 {
		cpu, _ := passSpeeds(ps)
		return median(cpu)
	}
	cpuSec := func(ps []simPass) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, p.cpu.Seconds())
		}
		return median(xs)
	}
	untracedX, tracedX := speed(plain), speed(traced)
	out.set("trace.sim_speed_x_untraced", untracedX, "x")
	out.set("trace.sim_speed_x_traced", tracedX, "x")
	out.set("trace.sim_overhead_frac", 1-tracedX/untracedX, "frac")
	out.set("sim.substrate_host_s", cfs.cpu.Seconds(), "s")
	out.set("harpsim.rm_host_s", cpuSec(plain)-cfs.cpu.Seconds(), "s")

	t := traced[0]
	mt := t.metrics
	out.set("core.reallocations", float64(mt.Reallocations.Value()), "count")
	out.set("core.decisions", float64(mt.Decisions.Value()), "count")
	out.set("core.useful_epoch_ratio_sim", ratio(t.journal.useful, t.journal.epochs), "frac")
	out.set("core.degraded_epochs_sim", float64(t.journal.degraded), "count")
	out.set("explore.steps", float64(mt.ExplorationSteps.Value()), "count")
	out.set("monitor.samples", float64(mt.Samples.Value()), "count")
	hits, misses := mt.AllocCacheHits.Value(), mt.AllocCacheMisses.Value()
	out.set("alloc.cache_hit_ratio_sim", ratio(int(hits), int(hits+misses)), "frac")
	out.set("alloc.lambda_iters_per_solve_sim", ratio(t.journal.lambdaIters, t.journal.computed), "count")
	var allocPerSimS []float64
	for _, p := range plain {
		allocPerSimS = append(allocPerSimS, float64(p.allocB)/p.makespanS)
	}
	out.set("go.alloc_bytes_per_sim_s", median(allocPerSimS), "B")
	out.log["untraced_passes"] = len(plain)
	out.log["traced_passes"] = len(traced)
	return nil
}
