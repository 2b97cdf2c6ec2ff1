package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpurpc"
	"dpurpc/internal/trace"
	"dpurpc/internal/xrpc"
)

// Options select one run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the measured time, split between the phases.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics.
	Trace bool
	// Baseline runs the workload on NewBaselineStack (host-terminated xRPC)
	// instead of the offloaded stack, for reference figures.
	Baseline bool
	// TraceDir receives the traced run's Chrome trace JSON ("" = none).
	TraceDir string
	// Exe is the benchmark's own executable. When it is set, an untraced
	// run times set-ups in fresh processes that run Exe -setup-once;
	// otherwise set-up is timed once, in-process.
	Exe string
	// Service breaks the host service on purpose (tests only).
	Service ServiceOptions
	// CacheGet also caches KV Get, and every Put invalidates the cached
	// Gets before it is acknowledged: the stale-read fault probe.
	CacheGet bool
	// Log receives the human-readable lines (nil = discard).
	Log io.Writer
}

// Ungated names the end-to-end metrics a run prints but leaves out of its
// JSON result, so no bound is set on them. On a shared two-vCPU virtual
// machine the tails of both phases move with the CPU time other tenants
// take: over twenty 45-s runs of small_serial, rtt_p99_us read 2.6–5.7 ms
// and load_p99_us 10–17 ms, while the medians agreed within a few percent.
var Ungated = map[string]bool{"rtt_p99_us": true, "load_p99_us": true}

// Metric is one reported figure.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// PhaseCount is the operation tally of one phase.
type PhaseCount struct {
	Name      string
	Attempted uint64
	Failed    uint64 // errors plus wrong answers
	Wrong     uint64 // answers that differ from what the client computed
	Stale     uint64 // Gets older than an acknowledged Put (counted in Wrong)
	Reads     uint64 // Gets answered
}

// Report is the outcome of one run.
type Report struct {
	Phases  []PhaseCount
	Metrics []Metric
	// TracePath is the Chrome trace written by a traced run.
	TracePath string
}

// Totals sums the phases.
func (r *Report) Totals() PhaseCount {
	var t PhaseCount
	for _, p := range r.Phases {
		t.Attempted += p.Attempted
		t.Failed += p.Failed
		t.Wrong += p.Wrong
		t.Stale += p.Stale
		t.Reads += p.Reads
	}
	return t
}

// phase counts the operations of one phase; slots of the loaded phase
// update it concurrently.
type phase struct {
	name                                   string
	attempted, failed, wrong, stale, reads atomic.Uint64
}

func (p *phase) record(o *op, v verdict, err error) {
	p.attempted.Add(1)
	if err == nil && o.kind == opGet {
		p.reads.Add(1)
	}
	switch {
	case err != nil:
		p.failed.Add(1)
	case v == verdictStale:
		p.stale.Add(1)
		p.wrong.Add(1)
		p.failed.Add(1)
	case v != verdictOK:
		p.wrong.Add(1)
		p.failed.Add(1)
	}
}

func (p *phase) count() PhaseCount {
	return PhaseCount{Name: p.name, Attempted: p.attempted.Load(), Failed: p.failed.Load(),
		Wrong: p.wrong.Load(), Stale: p.stale.Load(), Reads: p.reads.Load()}
}

// statusError is a non-OK xRPC status.
type statusError uint16

func (s statusError) Error() string { return "rpc status " + xrpc.StatusText(uint16(s)) }

// caller issues one call and classifies its answer.
type caller interface {
	call(method string, payload []byte, p *pending) (verdict, error)
}

type callResult struct {
	v   verdict
	err error
}

// xrpcCaller is one slot's view of a shared xRPC connection: it has at most
// one call in flight and checks the answer on the connection's reader
// goroutine, where the response bytes are valid, without copying them.
type xrpcCaller struct {
	cl  *xrpc.Client
	led *ledger
	p   *pending
	res chan callResult
	cb  func(uint16, []byte, error)
}

func newXRPCCaller(cl *xrpc.Client, led *ledger) *xrpcCaller {
	c := &xrpcCaller{cl: cl, led: led, res: make(chan callResult, 1)}
	c.cb = func(status uint16, resp []byte, err error) {
		switch {
		case err != nil:
			c.res <- callResult{err: err}
		case status != xrpc.StatusOK:
			c.res <- callResult{err: statusError(status)}
		default:
			c.res <- callResult{v: c.led.check(c.p, resp)}
		}
	}
	return c
}

func (c *xrpcCaller) call(method string, payload []byte, p *pending) (verdict, error) {
	c.p = p
	if err := c.cl.Go(method, payload, c.cb); err != nil {
		return 0, err
	}
	if err := c.cl.Flush(); err != nil {
		// The connection is broken: its reader fails every pending call,
		// this one included, so the result still arrives.
		r := <-c.res
		if r.err == nil {
			r.err = err
		}
		return r.v, r.err
	}
	r := <-c.res
	return r.v, r.err
}

// handlerCaller calls the stack's xRPC handler in-process, with no TCP.
type handlerCaller struct {
	h   func(method string, payload []byte) (uint16, []byte)
	led *ledger
}

func (c handlerCaller) call(method string, payload []byte, p *pending) (verdict, error) {
	status, resp := c.h(method, payload)
	if status != xrpc.StatusOK {
		return 0, statusError(status)
	}
	return c.led.check(p, resp), nil
}

// slot is one closed-loop client: it issues its op list in order, one call
// at a time. Every latency goes into the histograms it is given; a slot
// with keep set also keeps its samples, in completion order, until the
// window ends.
type slot struct {
	c    caller
	led  *ledger
	ops  []op
	next int
	buf  []byte
	keep bool
	lat  []int64 // ns
}

func newSlot(c caller, led *ledger, ops []op) *slot {
	return &slot{c: c, led: led, ops: ops, buf: make([]byte, 0, 64)}
}

func (s *slot) attach(c caller, led *ledger) { s.c, s.led, s.next = c, led, 0 }

func (s *slot) run(until time.Time, ph *phase, h *latHists) {
	for time.Now().Before(until) {
		s.once(ph, h)
	}
}

func (s *slot) once(ph *phase, h *latHists) {
	o := &s.ops[s.next%len(s.ops)]
	s.next++
	var p pending
	payload := s.led.begin(&p, o, s.buf)
	t0 := time.Now()
	v, err := s.c.call(o.method, payload, &p)
	d := int64(time.Since(t0))
	if h != nil {
		h.add(o.kind, d)
	}
	if s.keep {
		s.lat = append(s.lat, d)
	}
	ph.record(o, v, err)
	if err == nil && v == verdictOK {
		s.led.done(&p)
	}
}

// runner holds one run's stack, clients and tallies.
type runner struct {
	o      Options
	spec   Spec
	in     *inputs
	led    *ledger
	tracer *trace.Tracer

	schema  *dpurpc.Schema
	st      *dpurpc.Stack
	clients []*xrpc.Client
	seq     *slot
	loadSl  []*slot

	setupPh    *phase
	setupTimes []float64 // seconds

	hist    latHists
	scratch []int64 // one latency group, sorted
	// sideCPU, when set, is CPU time the process spent on work that is not
	// the measured calls (the traced run's drainer); windows leave it out.
	sideCPU func() time.Duration

	phases         []*phase
	warm, rebuilds *phase // lazily created tallies
	rep            Report

	steal0, total0 uint64 // /proc/stat at the start of the run
}

func (r *runner) newPhase(name string) *phase {
	p := &phase{name: name}
	r.phases = append(r.phases, p)
	return p
}

func (r *runner) logf(format string, args ...any) {
	if r.o.Log != nil {
		fmt.Fprintf(r.o.Log, format+"\n", args...)
	}
}

func (r *runner) add(name string, v float64, unit string) {
	r.rep.Metrics = append(r.rep.Metrics, Metric{Name: name, Value: v, Unit: unit})
}

// Run executes one workload run: set-up, then the sequential and loaded
// phases, and in a traced run the per-layer measurements.
func Run(o Options) (*Report, error) {
	if o.Seconds <= 0 {
		return nil, errors.New("seconds must be positive")
	}
	r, err := start(o)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if o.Trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	return r.report(), nil
}

// StaleProbe runs the kv_cached loaded phase for seconds with Get cached
// and each Put invalidating the cached Gets before it is acknowledged (or,
// with cacheGet false, with Get uncached), and returns how many Gets came
// back older than a Put the client had already seen acknowledged.
func StaleProbe(seed uint64, seconds float64, cacheGet bool) (stale, reads uint64, err error) {
	r, err := start(Options{Workload: KVCached, Seed: seed, CacheGet: cacheGet})
	if err != nil {
		return 0, 0, err
	}
	defer r.close()
	if _, err := r.loaded("probe", time.Duration(seconds*float64(time.Second)), false); err != nil {
		return 0, 0, err
	}
	c := r.report().Totals()
	return c.Stale, c.Reads, nil
}

// start builds the runner and runs the set-up phase: the first cold
// set-ups when Exe is set, then one in this process, whose stack the other
// phases use.
func start(o Options) (*runner, error) {
	r, err := newRunner(o)
	if err != nil {
		return nil, err
	}
	r.logf("# e2ebench workload=%s stack=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d go=%s",
		o.Workload, r.stackName(), o.Seed, o.Seconds, o.Trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	r.setupPh = r.newPhase("setup")
	if err := r.coldSetups(coldFirst); err != nil {
		return nil, err
	}
	d, err := r.setupOnce(r.setupPh, true)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.logf("in-process set-up: %.4f s", d.Seconds())
	if !r.cold() {
		r.setupTimes = append(r.setupTimes, d.Seconds())
	}
	return r, nil
}

func newRunner(o Options) (*runner, error) {
	spec, err := SpecFor(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.CacheGet {
		spec.Options.CacheMethods = append(spec.Options.CacheMethods, mGet)
	}
	schema, err := ParseSchema()
	if err != nil {
		return nil, err
	}
	r := &runner{o: o, spec: spec, in: newInputs(schema, spec, o.Seed), led: newLedger(o.Seed)}
	r.steal0, r.total0 = stealTicks()
	if o.Trace && !o.Baseline {
		r.tracer = trace.New(trace.Config{})
	}
	return r, nil
}

// SetupOnce times one set-up phase, from schema parse to the first correct
// response, on a stack it then closes, and reports whether that response was
// correct. It is what each cold set-up process runs.
func SetupOnce(o Options) (seconds float64, correct bool, err error) {
	r, err := newRunner(o)
	if err != nil {
		return 0, false, err
	}
	// Collect the inputs' garbage first, so no collection started by
	// building them runs during the timed set-up.
	runtime.GC()
	ph := r.newPhase("setup")
	d, err := r.setupOnce(ph, false)
	if err != nil {
		return 0, false, err
	}
	return d.Seconds(), ph.count().Failed == 0, nil
}

func (r *runner) report() *Report {
	if steal, total := stealTicks(); total > r.total0 {
		r.logf("cpu time stolen by the hypervisor during the run: %.1f%%",
			100*float64(steal-r.steal0)/float64(total-r.total0))
	}
	r.rep.Phases = r.rep.Phases[:0]
	for _, p := range r.phases {
		r.rep.Phases = append(r.rep.Phases, p.count())
	}
	return &r.rep
}

func (r *runner) stackName() string {
	if r.o.Baseline {
		return "baseline"
	}
	return "offloaded"
}

func (r *runner) close() {
	for _, c := range r.clients {
		c.Close()
	}
	if r.st != nil {
		r.st.Close()
	}
}

// Cold set-ups: coldFirst at the start of a run and coldPerStack before
// each window's fresh stack, 61 in all, so a run's set-up median samples
// its whole length rather than the load the machine had in its first
// seconds.
const (
	coldFirst    = 21
	coldPerStack = 2
)

// cold reports whether set-up is timed in fresh processes.
func (r *runner) cold() bool { return r.o.Exe != "" && !r.o.Trace }

// coldSetups times n set-ups, each in a fresh process running
// Exe -setup-once, and adds them to setupTimes. A process's first set-up
// is the one a deployment pays; later set-ups in one process reuse memory
// the Go runtime must zero again, and took 30 ms against 4–7 ms for a
// first one, with a spread that followed other tenants' load.
func (r *runner) coldSetups(n int) error {
	if !r.cold() {
		return nil
	}
	ph := r.setupPh
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, r.o.Exe, "-setup-once", "-workload", r.o.Workload,
			"-seed", strconv.FormatUint(r.o.Seed, 10), "-stack", r.stackName()).Output()
		cancel()
		if err != nil {
			return fmt.Errorf("set-up process: %w", err)
		}
		var secs float64
		var ok bool
		if _, err := fmt.Sscanf(string(out), "setup_once %g %t", &secs, &ok); err != nil {
			return fmt.Errorf("set-up process printed %q: %w", out, err)
		}
		ph.attempted.Add(1)
		if !ok {
			ph.failed.Add(1)
			ph.wrong.Add(1)
		}
		r.setupTimes = append(r.setupTimes, secs)
	}
	return nil
}

func (r *runner) setupOnce(ph *phase, keep bool) (time.Duration, error) {
	t0 := time.Now()
	schema, err := ParseSchema()
	if err != nil {
		return 0, err
	}
	svc := r.o.Service
	svc.Seed = r.o.Seed
	var stack atomic.Pointer[dpurpc.Stack]
	if r.o.CacheGet {
		svc.OnPut = func() { stack.Load().InvalidateMethod("e2e.KV", "Get") }
	}
	impls := Impls(schema, svc)
	var st *dpurpc.Stack
	if r.o.Baseline {
		st, err = dpurpc.NewBaselineStack(schema, impls, dpurpc.StackOptions{})
	} else {
		opts := r.spec.Options
		opts.Tracer = r.tracer
		st, err = dpurpc.NewOffloadedStack(schema, impls, opts)
	}
	if err != nil {
		return 0, err
	}
	stack.Store(st)
	addr, err := st.ListenAndServe("127.0.0.1:0")
	if err != nil {
		st.Close()
		return 0, err
	}
	cl, err := xrpc.Dial(addr)
	if err != nil {
		st.Close()
		return 0, err
	}
	first := r.in.first()
	p := pending{op: first}
	v, callErr := newXRPCCaller(cl, r.led).call(first.method, first.req, &p)
	d := time.Since(t0)
	ph.record(first, v, callErr)
	if !keep || callErr != nil {
		cl.Close()
		st.Close()
		return d, callErr
	}
	r.schema, r.st, r.clients = schema, st, []*xrpc.Client{cl}
	for len(r.clients) < loadedConns {
		c, err := xrpc.Dial(addr)
		if err != nil {
			return 0, err
		}
		r.clients = append(r.clients, c)
	}
	r.attach()
	return d, nil
}

// attach points the slots at the kept stack's clients and ledger, creating
// them on first use. The op lists and sample buffers are made once per run;
// every stack starts the lists from the beginning.
func (r *runner) attach() {
	if r.seq == nil {
		r.seq = newSlot(nil, nil, r.in.slotOps(0, 1))
		r.seq.keep = true
		n := loadedConns * r.spec.window
		for i := 0; i < n; i++ {
			r.loadSl = append(r.loadSl, newSlot(nil, nil, r.in.slotOps(i, n)))
		}
	}
	r.seq.attach(newXRPCCaller(r.clients[0], r.led), r.led)
	for i, s := range r.loadSl {
		s.attach(newXRPCCaller(r.clients[i%loadedConns], r.led), r.led)
	}
}

// sequential runs the one-call-in-flight closed loop in windows.
func (r *runner) sequential(name string, dur time.Duration, fresh bool) (phaseResult, error) {
	return r.timed(name, dur, r.seqSlots, fresh, false)
}

var kindNames = [...]string{opSmall: "Small", opInts: "Ints", opChars: "Chars", opEcho: "Echo",
	opBlob: "EchoBlob", opLookup: "Lookup", opGet: "Get", opPut: "Put"}

// logModes prints each op kind's share of the phase's calls and its latency
// quantiles, which show where the latency modes lie against the medians.
func (r *runner) logModes(name string) {
	var total uint64
	for k := range r.hist.kinds {
		total += r.hist.kinds[k].count()
	}
	for k := range r.hist.kinds {
		h := &r.hist.kinds[k]
		if n := h.count(); n > 0 {
			r.logf("mode %-18s %-8s share=%5.1f%% p10=%.0fus p50=%.0fus p90=%.0fus p99=%.0fus", name, kindNames[k],
				100*float64(n)/float64(total), h.quantileUS(0.1), h.quantileUS(0.5), h.quantileUS(0.9), h.quantileUS(0.99))
		}
	}
}

// window is one timed window of a phase.
type window struct {
	calls    int
	elapsed  time.Duration
	cpu      time.Duration // process user+sys time over the window
	steal    float64       // share of the machine's CPU time stolen by the hypervisor
	p50, p99 float64       // the window's latency quantiles, us
	rssMiB   float64       // the largest resident set seen in the window
}

// phaseResult is a timed phase: its windows and the quantiles of its
// latency groups. A window's samples are dropped when it ends and only
// these few figures are kept, so the benchmark's own memory does not grow
// with the number of calls and rss_peak_mib follows the stack.
type phaseResult struct {
	windows []window
	groups  []groupQ
	calls   int
}

// groupCalls is the least size of a latency group: consecutive calls of the
// sequential slot, whose p99 has ten calls beyond it.
const groupCalls = 1000

// groupQ holds one group's median and p99, in microseconds.
type groupQ struct{ p50, p99 float64 }

// groupQuantiles splits one window's calls, in order of completion, into as
// many groups of at least groupCalls as they fill, and appends each group's
// quantiles to out.
func (r *runner) groupQuantiles(out []groupQ, lat []int64) []groupQ {
	k := len(lat) / groupCalls
	for i := 0; i < k; i++ {
		r.scratch = append(r.scratch[:0], lat[i*len(lat)/k:(i+1)*len(lat)/k]...)
		sortNS(r.scratch)
		out = append(out, groupQ{p50: quantileUS(r.scratch, 0.5), p99: quantileUS(r.scratch, 0.99)})
	}
	return out
}

// median returns the median over the windows of f.
func (p phaseResult) median(f func(w window) float64) float64 {
	v := make([]float64, len(p.windows))
	for i, w := range p.windows {
		v[i] = f(w)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	return (v[(n-1)/2] + v[n/2]) / 2
}

// rps is the median over the windows of calls per second of the window's
// wall time that the hypervisor did not steal. The loaded phase keeps both
// CPUs busy, so its rate follows the CPU time the machine is given; other
// tenants take from 1% to over 20% of it from one hour to the next, and
// calls per wall second moved by as much.
func (p phaseResult) rps() float64 {
	return p.median(func(w window) float64 { return float64(w.calls) / (w.elapsed.Seconds() * (1 - w.steal)) })
}

func (p phaseResult) cpuUSPerReq() float64 {
	return p.median(func(w window) float64 { return float64(w.cpu.Microseconds()) / float64(w.calls) })
}

// p50 and p99 are the medians over the phase's groups of each group's
// quantile, in microseconds: the tail a call meets in a typical stretch of
// at least 1000 calls. A short stall (a garbage collection, a burst of load
// from outside the process) lifts the p99 of the few groups it overlaps, not
// the median group. A phase without groups (the loaded one, or one too short
// for a group) reports the median over its windows of each window's
// quantile.
func (p phaseResult) p50() float64 {
	return p.groupMedian(func(g groupQ) float64 { return g.p50 }, func(w window) float64 { return w.p50 })
}

func (p phaseResult) p99() float64 {
	return p.groupMedian(func(g groupQ) float64 { return g.p99 }, func(w window) float64 { return w.p99 })
}

func (p phaseResult) groupMedian(f func(groupQ) float64, fw func(window) float64) float64 {
	if len(p.groups) == 0 {
		return p.median(fw)
	}
	v := make([]float64, len(p.groups))
	for i, g := range p.groups {
		v[i] = f(g)
	}
	return medianOf(v)
}

// timed runs closed loops for dur, split into windows, and returns each
// window's figures. slots picks the loops of each window. With fresh set,
// every window runs on a newly built stack, after a short untimed warm-up
// when warm is set.
func (r *runner) timed(name string, dur time.Duration, slots func() []*slot, fresh, warm bool) (phaseResult, error) {
	ph := r.newPhase(name)
	r.hist.resetKinds()
	var res phaseResult
	for seg := 0; seg < segments; seg++ {
		if fresh {
			if err := r.rebuild(); err != nil {
				return res, err
			}
		}
		if warm {
			r.runSlots(slots(), r.warmPhase(), time.Now().Add(warmWindow), nil)
		}
		idleGap(seg)
		r.window(slots(), ph, dur/segments, &res)
	}
	r.logModes(name)
	r.logWindows(name, res)
	return res, nil
}

// window runs the slots' closed loops for d as one window of res.
func (r *runner) window(sl []*slot, ph *phase, d time.Duration, res *phaseResult) {
	r.hist.window.reset()
	for _, s := range sl {
		s.lat = s.lat[:0]
	}
	steal0, total0 := stealTicks()
	rss := startRSSSampler()
	cpu0 := r.cpuTime()
	start := time.Now()
	r.runSlots(sl, ph, start.Add(d), &r.hist)
	w := window{elapsed: time.Since(start), cpu: r.cpuTime() - cpu0, rssMiB: rss.stop()}
	if steal1, total1 := stealTicks(); total1 > total0 {
		w.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	h := &r.hist.window
	w.calls = int(h.count())
	w.p50, w.p99 = h.quantileUS(0.5), h.quantileUS(0.99)
	if len(sl) == 1 && sl[0].keep {
		lat := sl[0].lat
		res.groups = r.groupQuantiles(res.groups, lat)
		sortNS(lat)
		w.p50, w.p99 = quantileUS(lat, 0.5), quantileUS(lat, 0.99)
	}
	res.windows = append(res.windows, w)
	res.calls += w.calls
}

// runSlots runs the slots' closed loops until until; each ends when its
// call in flight completes.
func (r *runner) runSlots(slots []*slot, ph *phase, until time.Time, h *latHists) {
	var wg sync.WaitGroup
	for _, s := range slots {
		wg.Add(1)
		go func(s *slot) {
			defer wg.Done()
			s.run(until, ph, h)
		}(s)
	}
	wg.Wait()
}

// warmWindow is the untimed warm-up before each loaded window on a fresh
// stack: long enough to fill the response cache and grow the pools.
const warmWindow = 300 * time.Millisecond

func (r *runner) warmPhase() *phase {
	if r.warm == nil {
		r.warm = r.newPhase("warmup")
	}
	return r.warm
}

// rebuild replaces the stack, its clients and the client's ledger with new
// ones, as the last set-up did. Which OS threads the stack's poller
// goroutines and timers land on, and so how often a call waits out an extra
// 1 ms poller cycle, is fixed for a stack's life; a fresh stack per window
// averages a run over ten such placements instead of one.
func (r *runner) rebuild() error {
	r.close()
	r.clients = nil
	debug.FreeOSMemory()
	if err := r.coldSetups(coldPerStack); err != nil {
		return err
	}
	r.led = newLedger(r.o.Seed)
	if r.rebuilds == nil {
		r.rebuilds = r.newPhase("rebuild")
	}
	_, err := r.setupOnce(r.rebuilds, true)
	return err
}

func (r *runner) seqSlots() []*slot  { return []*slot{r.seq} }
func (r *runner) loadSlots() []*slot { return r.loadSl }

// logWindows prints each window's figures, which show how far the windows
// of one run agree.
func (r *runner) logWindows(name string, res phaseResult) {
	for i, w := range res.windows {
		r.logf("window %-18s %d calls=%d req/s=%.0f stolen=%.1f%% cpu_us/req=%.2f p50=%.0fus p99=%.0fus rss=%.1fMiB", name, i, w.calls,
			float64(w.calls)/w.elapsed.Seconds(), 100*w.steal, float64(w.cpu.Microseconds())/float64(w.calls), w.p50, w.p99, w.rssMiB)
	}
}

func sortNS(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// loaded runs every loaded slot's closed loop for dur in windows.
func (r *runner) loaded(name string, dur time.Duration, fresh bool) (phaseResult, error) {
	return r.timed(name, dur, r.loadSlots, fresh, fresh)
}

// segments splits every timed phase into windows separated by idle gaps;
// throughput and CPU are medians over the windows. The DPU and host pollers
// sleep in 1 ms timed waits, so a closed loop's figures depend on how its
// calls line up with those waits, and a burst of load from outside the
// process can spoil a window; the gaps start each window at another point
// of the pollers' cycle, and the median sets a spoilt window aside.
const segments = 10

// idleGap sleeps before window seg: 5 ms plus seg tenths of the pollers'
// 1 ms wait.
func idleGap(seg int) {
	if seg > 0 {
		time.Sleep(5*time.Millisecond + time.Duration(seg)*100*time.Microsecond)
	}
}

// warmUp runs the loaded loops untimed on the current stack, so caches
// fill and pools grow before anything is measured.
func (r *runner) warmUp() {
	d := time.Duration(r.o.Seconds * 0.05 * float64(time.Second))
	if d < 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	r.runSlots(r.loadSl, r.warmPhase(), time.Now().Add(d), nil)
}

// untraced measures the end-to-end metrics, each window on a fresh stack.
func (r *runner) untraced() error {
	total := time.Duration(r.o.Seconds * float64(time.Second))
	r.logf("peak RSS after set-up: %.1f MiB", rssPeakMiB())
	seq, err := r.sequential("sequential", total/2, true)
	if err != nil {
		return err
	}
	r.logf("peak RSS after the sequential phase: %.1f MiB", rssPeakMiB())
	if seq.calls < groupCalls {
		return fmt.Errorf("sequential phase completed %d calls; at least %d are needed for a p99", seq.calls, groupCalls)
	}
	load, err := r.loaded("loaded", total/2, true)
	if err != nil {
		return err
	}
	r.add("throughput_rps", load.rps(), "req/s")
	r.add("cpu_us_per_req", load.cpuUSPerReq(), "us")
	r.add("rtt_p50_us", seq.p50(), "us")
	r.add("rtt_p99_us", seq.p99(), "us")
	r.add("load_p99_us", load.p99(), "us")
	r.add("rss_peak_mib", load.median(func(w window) float64 { return w.rssMiB }), "MiB")
	r.logf("peak RSS of the whole run (ru_maxrss): %.1f MiB", rssPeakMiB())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.logf("go runtime at the end: heap in use %.1f MiB, heap from the OS %.1f MiB, goroutine stacks %.1f MiB, all from the OS %.1f MiB",
		mib(ms.HeapInuse), mib(ms.HeapSys-ms.HeapReleased), mib(ms.StackSys), mib(ms.Sys-ms.HeapReleased))
	r.logf("set-up times (s): %.4f", r.setupTimes)
	r.add("setup_s", medianOf(append([]float64(nil), r.setupTimes...)), "s")
	r.logf("sequential calls=%d in %d groups, loaded calls=%d in %d groups",
		seq.calls, len(seq.groups), load.calls, len(load.groups))
	return nil
}

// quantileUS is the q-quantile (ceil-rank, as trace.Breakdown) of sorted
// nanosecond samples, in microseconds.
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// stealTicks reads the machine-wide CPU time stolen by the hypervisor (the
// "steal" column of /proc/stat, in clock ticks), and the total; both are 0
// where the file is missing. A run prints the stolen share, because on a
// shared virtual machine it, more than the program, moves the tail
// latencies.
func stealTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuTime is the process's user+sys CPU time, less sideCPU.
func (r *runner) cpuTime() time.Duration {
	t := rusageCPU(syscall.RUSAGE_SELF)
	if r.sideCPU != nil {
		t -= r.sideCPU()
	}
	return t
}

// rusageThread selects the calling thread in getrusage (RUSAGE_THREAD on
// Linux).
const rusageThread = 1

// rusageCPU is the user+sys CPU time of the process or of the calling
// thread.
func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// rssSampler reads the process's resident set every 5 ms and keeps the
// largest it sees.
type rssSampler struct {
	peak uint64 // pages
	quit chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	if n := residentPages(); n > s.peak {
		s.peak = n
	}
}

// stop ends the sampling and returns the peak in MiB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	<-s.done
	s.sample()
	return float64(s.peak) * float64(os.Getpagesize()) / (1 << 20)
}

// residentPages is the second field of /proc/self/statm, the process's
// resident set in pages (0 where the file is missing).
func residentPages() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	n, _ := strconv.ParseUint(f[1], 10, 64)
	return n
}

// rssPeakMiB is the process's peak resident set (Linux reports KiB).
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
