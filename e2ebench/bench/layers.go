package bench

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpurpc/internal/arena"
	"dpurpc/internal/deser"
	"dpurpc/internal/fabric"
	"dpurpc/internal/offload"
	"dpurpc/internal/rdma"
	"dpurpc/internal/rpccache"
	"dpurpc/internal/rpcrdma"
	"dpurpc/internal/trace"
	"dpurpc/internal/xrpc"
)

// traceStages are the datapath stages trace.Breakdown can emit, in datapath
// order. Each yields a stage row and a "wait:" row; with "wait:deliver" and
// "e2e" they are every row the per-layer metrics report.
var traceStages = []string{
	trace.StageMeasure, trace.StageReserve, trace.StageBuild, trace.StageCommit,
	trace.StageDoorbell, trace.StageHostDispatch, trace.StageHostHandler,
	trace.StageRespReserve, trace.StageRespBuild, trace.StageRespCommit,
	trace.StageRespDoorbell, trace.StageRespSerialize, trace.StageDeliver,
	trace.StageCacheHit,
}

func traceRows() []string {
	rows := make([]string, 0, 2*len(traceStages)+2)
	for _, s := range traceStages {
		rows = append(rows, "wait:"+s, s)
	}
	return append(rows, "wait:deliver", "e2e")
}

// traceAgg accumulates trace.Breakdown over drained batches. Totals add
// exactly, so mean = total / traces is each row's mean per traced request
// and the rows' means add up to the e2e mean.
type traceAgg struct {
	totals map[string]float64 // row -> summed microseconds
	traces int
	sample []trace.Trace // the first traces, for the Chrome export
}

const traceSample = 400

func (a *traceAgg) add(batch []trace.Trace) {
	if len(batch) == 0 {
		return
	}
	a.traces += len(batch)
	for _, row := range trace.Breakdown(batch) {
		a.totals[row.Stage] += row.TotalUS
	}
	if n := traceSample - len(a.sample); n > 0 {
		if n > len(batch) {
			n = len(batch)
		}
		a.sample = append(a.sample, batch[:n]...)
	}
}

// check verifies that every row is a known one and that the rows partition
// the end-to-end time.
func (a *traceAgg) check(phase string) error {
	known := map[string]bool{}
	for _, r := range traceRows() {
		known[r] = true
	}
	var sum float64
	for row, us := range a.totals {
		if !known[row] {
			return fmt.Errorf("trace %s: unexpected breakdown row %q", phase, row)
		}
		if row != "e2e" {
			sum += us
		}
	}
	if e2e := a.totals["e2e"]; math.Abs(sum-e2e) > 1e-6*e2e+1e-3 {
		return fmt.Errorf("trace %s: rows sum to %.3fus, e2e is %.3fus", phase, sum, e2e)
	}
	return nil
}

// drainer empties the tracer's rings every 10 ms, well before the
// 4096-entry rings (256 per shard) can wrap at this process's call rates,
// and folds each batch into the current phase's aggregate. It runs on a
// thread of its own and publishes that thread's CPU time, so the windows
// can leave the benchmark's own trace processing out of the process's.
type drainer struct {
	t    *trace.Tracer
	mu   sync.Mutex
	cur  *traceAgg
	cpu  atomic.Int64 // ns of CPU the drainer's thread has used
	stop chan struct{}
	done chan struct{}
}

func startDrainer(t *trace.Tracer) *drainer {
	d := &drainer{t: t, stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(d.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := rusageCPU(rusageThread)
		close(ready)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
				d.drain()
				d.cpu.Store(int64(rusageCPU(rusageThread) - start))
			}
		}
	}()
	<-ready
	return d
}

// cpuUsed is the CPU time the drainer's thread has used so far, as of its
// last tick.
func (d *drainer) cpuUsed() time.Duration { return time.Duration(d.cpu.Load()) }

func (d *drainer) drain() {
	batch := d.t.Drain()
	d.mu.Lock()
	if d.cur != nil {
		d.cur.add(batch)
	}
	d.mu.Unlock()
}

// phase drains what the previous phase left and starts a new aggregate.
// Callers switch only when no call is in flight.
func (d *drainer) phase() *traceAgg {
	d.drain()
	a := &traceAgg{totals: map[string]float64{}}
	d.mu.Lock()
	d.cur = a
	d.mu.Unlock()
	return a
}

func (d *drainer) close() {
	close(d.stop)
	<-d.done
	d.drain()
}

// counts is a snapshot of the counters the program exposes, plus the Go
// runtime's allocation totals.
type counts struct {
	sheds, hits, misses, evictions                                   uint64
	varint, copied, ref                                              uint64 // deser byte counts
	reqBlocks, respBlocks, ackOnly, creditStalls, pipeStalls, timers uint64
	h2d, d2h                                                         uint64
	mallocs, allocBytes                                              uint64
}

// snapCounts reads the deployment's counters. The rpcrdma endpoint counters
// are plain fields owned by the poller goroutines; they are read between
// phases, when no call is in flight and the pollers only idle.
func (r *runner) snapCounts() counts {
	var c counts
	if d := r.st.Deployment(); d != nil {
		for _, dpu := range d.DPUs {
			s := dpu.Stats()
			c.sheds += s.Sheds
			c.varint += s.Deser.VarintBytes
			c.copied += s.Deser.CopyBytes
			c.ref += s.Deser.RefBytes
			cc := dpu.Client().Counters
			c.reqBlocks += cc.BlocksSent - cc.AckOnlyBlocks
			c.ackOnly += cc.AckOnlyBlocks
			c.creditStalls += cc.CreditStalls
			c.pipeStalls += cc.PipelineStalls
			c.timers += cc.FlushTimer
		}
		for _, p := range d.Pollers {
			for _, conn := range p.Conns() {
				sc := conn.Counters
				c.respBlocks += sc.BlocksSent - sc.AckOnlyBlocks
				c.ackOnly += sc.AckOnlyBlocks
				c.creditStalls += sc.CreditStalls
				c.pipeStalls += sc.PipelineStalls
				c.timers += sc.FlushTimer
			}
		}
		c.h2d = d.Link.Stats(fabric.HostToDPU).TotalBytes()
		c.d2h = d.Link.Stats(fabric.DPUToHost).TotalBytes()
	}
	if cache := r.st.Cache(); cache != nil {
		s := cache.Stats()
		c.hits, c.misses, c.evictions = s.Hits, s.Misses, s.Evictions
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	return c
}

// add adds the counts of a minus those of b to c.
func (c *counts) addDelta(a, b counts) {
	c.sheds += a.sheds - b.sheds
	c.hits += a.hits - b.hits
	c.misses += a.misses - b.misses
	c.evictions += a.evictions - b.evictions
	c.varint += a.varint - b.varint
	c.copied += a.copied - b.copied
	c.ref += a.ref - b.ref
	c.reqBlocks += a.reqBlocks - b.reqBlocks
	c.respBlocks += a.respBlocks - b.respBlocks
	c.ackOnly += a.ackOnly - b.ackOnly
	c.creditStalls += a.creditStalls - b.creditStalls
	c.pipeStalls += a.pipeStalls - b.pipeStalls
	c.timers += a.timers - b.timers
	c.h2d += a.h2d - b.h2d
	c.d2h += a.d2h - b.d2h
	c.mallocs += a.mallocs - b.mallocs
	c.allocBytes += a.allocBytes - b.allocBytes
}

// traced measures the per-layer metrics: the trace breakdown of a traced
// sequential phase; untraced and traced loaded windows on one stack, the
// untraced ones giving the counter deltas and both the tracing overhead;
// and timed calls into each layer on the workload's inputs.
func (r *runner) traced() error {
	total := time.Duration(r.o.Seconds * float64(time.Second))
	r.warmUp()

	var seqAgg, loadAgg *traceAgg
	var dr *drainer
	if r.tracer != nil {
		dr = startDrainer(r.tracer)
		r.sideCPU = dr.cpuUsed
		r.tracer.Enable()
		seqAgg = dr.phase()
		if _, err := r.sequential("sequential_traced", total/4, false); err != nil {
			dr.close()
			return err
		}
		r.tracer.Disable()
		loadAgg = dr.phase()
	}
	plain, tl, delta := r.loadedPair(total / 2)
	if dr != nil {
		dr.phase()
		dr.close()
		r.sideCPU = nil
		for _, a := range []struct {
			name string
			agg  *traceAgg
		}{{"seq", seqAgg}, {"load", loadAgg}} {
			if err := a.agg.check(a.name); err != nil {
				return err
			}
			for _, row := range traceRows() {
				v := 0.0
				if a.agg.traces > 0 {
					v = a.agg.totals[row] / float64(a.agg.traces)
				}
				r.add("trace."+a.name+"."+strings.ReplaceAll(row, ":", ".")+".mean_us", v, "us")
			}
			r.add("trace."+a.name+".traces", float64(a.agg.traces), "count")
		}
		st := r.tracer.Stats()
		r.add("trace.dropped", float64(st.DroppedRing+st.DroppedActive), "count")
		r.add("trace.overhead_us_per_req", tl.cpuUSPerReq()-plain.cpuUSPerReq(), "us")
		if err := r.writeChrome(append(seqAgg.sample, loadAgg.sample...)); err != nil {
			return err
		}
	}

	micro := total / 16
	calls := r.wireCalls()
	offloadP50 := r.offloadCall(micro)
	xrpcP50, err := xrpcRTT(calls, micro)
	if err != nil {
		return err
	}
	rdmaP50, err := rpcrdmaRTT(calls, micro)
	if err != nil {
		return err
	}
	scanNS, fillNS, err := r.deserTimes(calls, micro)
	if err != nil {
		return err
	}
	getNS, err := r.cacheGet(calls, micro)
	if err != nil {
		return err
	}

	n := float64(plain.calls)
	perK := func(v uint64) float64 { return float64(v) * 1000 / n }
	per := func(v uint64) float64 { return float64(v) / n }
	r.add("xrpc.rtt_p50_us", xrpcP50, "us")
	r.add("offload.call_p50_us", offloadP50, "us")
	r.add("offload.sheds_per_kreq", perK(delta.sheds), "1/kreq")
	r.add("rpcrdma.rtt_p50_us", rdmaP50, "us")
	r.add("rpcrdma.req_blocks_per_kreq", perK(delta.reqBlocks), "1/kreq")
	r.add("rpcrdma.resp_blocks_per_kreq", perK(delta.respBlocks), "1/kreq")
	r.add("rpcrdma.ack_only_blocks_per_kreq", perK(delta.ackOnly), "1/kreq")
	r.add("rpcrdma.credit_stalls_per_kreq", perK(delta.creditStalls), "1/kreq")
	r.add("rpcrdma.pipeline_stalls_per_kreq", perK(delta.pipeStalls), "1/kreq")
	r.add("rpcrdma.flush_timer_per_kreq", perK(delta.timers), "1/kreq")
	r.add("deser.scan_ns", scanNS, "ns")
	r.add("deser.fill_ns", fillNS, "ns")
	r.add("deser.varint_bytes_per_req", per(delta.varint), "B/req")
	r.add("deser.copy_bytes_per_req", per(delta.copied), "B/req")
	r.add("deser.ref_bytes_per_req", per(delta.ref), "B/req")
	r.add("fabric.host_to_dpu_bytes_per_req", per(delta.h2d), "B/req")
	r.add("fabric.dpu_to_host_bytes_per_req", per(delta.d2h), "B/req")
	hitRatio := 0.0
	if probes := delta.hits + delta.misses; probes > 0 {
		hitRatio = float64(delta.hits) / float64(probes)
	}
	r.add("rpccache.hit_ratio", hitRatio, "ratio")
	r.add("rpccache.evictions_per_kreq", perK(delta.evictions), "1/kreq")
	r.add("rpccache.get_ns", getNS, "ns")
	r.add("process.allocs_per_req", per(delta.mallocs), "count")
	r.add("process.alloc_bytes_per_req", per(delta.allocBytes), "B/req")
	r.logf("untraced loaded: %.0f req/s, %.2f us CPU/req", plain.rps(), plain.cpuUSPerReq())
	if len(tl.windows) > 0 {
		r.logf("traced loaded: %.0f req/s, %.2f us CPU/req", tl.rps(), tl.cpuUSPerReq())
	}
	return nil
}

// loadedPair runs the loaded slots on the current stack for dur: windows
// without and, when there is a tracer, with tracing, in pairs whose order
// swaps every time, so neither side always runs second. It returns both
// sides and the counter deltas over the untraced windows.
func (r *runner) loadedPair(dur time.Duration) (plain, traced phaseResult, delta counts) {
	var phPlain, phTraced *phase
	phPlain = r.newPhase("loaded")
	if r.tracer != nil {
		phTraced = r.newPhase("loaded_traced")
	}
	r.hist.resetKinds()
	for seg := 0; seg < segments; seg++ {
		for i := 0; i < 2; i++ {
			on := (seg+i)%2 == 1
			if on && r.tracer == nil {
				continue
			}
			idleGap(seg)
			if on {
				r.tracer.Enable()
				r.window(r.loadSl, phTraced, dur/2/segments, &traced)
				r.tracer.Disable()
				continue
			}
			before := r.snapCounts()
			r.window(r.loadSl, phPlain, dur/2/segments, &plain)
			delta.addDelta(r.snapCounts(), before)
		}
	}
	r.logModes("loaded_pair")
	r.logWindows("loaded", plain)
	r.logWindows("loaded_traced", traced)
	return plain, traced, delta
}

func (r *runner) writeChrome(traces []trace.Trace) error {
	if r.o.TraceDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.o.TraceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.o.TraceDir, fmt.Sprintf("%s-seed%d.json", r.o.Workload, r.o.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, traces); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.rep.TracePath = path
	return nil
}

// wireCall is one request with the response a layer below the service must
// carry back: the expected answer where the client knows it exactly, and a
// well-formed answer of the service's size for Get and Put.
type wireCall struct {
	method, input string
	req, resp     []byte
}

var inputType = map[string]string{
	mSmall: "e2e.Small", mInts: "e2e.IntArray", mChars: "e2e.CharArray", mEcho: "e2e.CharArray",
	mBlob: "e2e.Blob", mLookup: "e2e.LookupRequest", mGet: "e2e.GetRequest", mPut: "e2e.PutRequest",
}

// wireCalls turns the sequential op list into wireCalls.
func (r *runner) wireCalls() []wireCall {
	ops := r.in.slotOps(0, 1)
	calls := make([]wireCall, len(ops))
	for i, o := range ops {
		c := wireCall{method: o.method, input: inputType[o.method], req: o.req, resp: o.want}
		switch o.kind {
		case opGet:
			c.resp = appendPut(nil, r.o.Seed, o.key, 1) // Value has PutRequest's fields
		case opPut:
			c.req = appendPut(nil, r.o.Seed, o.key, 1)
			c.resp = c.req[:len(c.req)-storeValueLen-2] // PutAck: key and version
		}
		calls[i] = c
	}
	return calls
}

func medianUS(lat []int64) float64 {
	sortNS(lat)
	return quantileUS(lat, 0.5)
}

// offloadCall times sequential calls of the stack's xRPC handler with no
// TCP in between, on the workload's own op list and checks.
func (r *runner) offloadCall(budget time.Duration) float64 {
	s := newSlot(handlerCaller{h: r.st.Handler(), led: r.led}, r.led, r.in.slotOps(0, 1))
	s.keep = true
	s.run(time.Now().Add(budget), r.newPhase("offload_call"), nil)
	return medianUS(s.lat)
}

var errWrongAnswer = errors.New("wrong answer")

// xrpcRTT times sequential round trips through an xRPC client and server
// alone, over loopback TCP, with the workload's request and response sizes.
func xrpcRTT(calls []wireCall, budget time.Duration) (float64, error) {
	var next atomic.Pointer[[]byte]
	srv := xrpc.NewServer(func(string, []byte) (uint16, []byte) { return xrpc.StatusOK, *next.Load() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := xrpc.Dial(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	var lat []int64
	until := time.Now().Add(budget)
	for i := 0; time.Now().Before(until); i++ {
		c := &calls[i%len(calls)]
		next.Store(&c.resp)
		t0 := time.Now()
		status, resp, err := cl.Call(c.method, c.req)
		lat = append(lat, int64(time.Since(t0)))
		if err != nil {
			return 0, err
		}
		if status != xrpc.StatusOK || !bytes.Equal(resp, c.resp) {
			return 0, fmt.Errorf("xrpc round trip: %w", errWrongAnswer)
		}
	}
	return medianUS(lat), nil
}

// rpcrdmaRTT times sequential round trips over an in-process rpcrdma.Connect
// pair with Table I defaults: the client is driven from this goroutine, the
// server poller from another, and the handler returns the workload's
// response bytes.
func rpcrdmaRTT(calls []wireCall, budget time.Duration) (float64, error) {
	link := fabric.NewLink()
	clientDev := rdma.NewDevice("dpu", link, fabric.DPUToHost)
	serverDev := rdma.NewDevice("host", link, fabric.HostToDPU)
	poller := rpcrdma.NewServerPoller(rpcrdma.DefaultServerConfig())
	var next atomic.Pointer[[]byte]
	h := func(rpcrdma.Request) rpcrdma.ResponseSpec {
		resp := *next.Load()
		return rpcrdma.ResponseSpec{Size: len(resp), Build: func(dst []byte, _ uint64) (uint32, int, error) {
			return 0, copy(dst, resp), nil
		}}
	}
	cc, _, err := rpcrdma.Connect(clientDev, serverDev, rpcrdma.DefaultClientConfig(), rpcrdma.DefaultServerConfig(), poller, h)
	if err != nil {
		return 0, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := poller.Progress(); err != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
		poller.Close()
		cc.Close()
	}()

	var lat []int64
	until := time.Now().Add(budget)
	for i := 0; time.Now().Before(until); i++ {
		c := &calls[i%len(calls)]
		next.Store(&c.resp)
		done, ok := false, false
		t0 := time.Now()
		err := cc.Enqueue(rpcrdma.CallSpec{
			Size: len(c.req),
			Build: func(dst []byte, _ uint64) (uint32, int, error) {
				return 0, copy(dst, c.req), nil
			},
			OnResponse: func(resp rpcrdma.Response) {
				done = true
				ok = !resp.Err && bytes.Equal(resp.Payload, c.resp)
			},
		})
		if err != nil {
			return 0, err
		}
		for !done {
			if _, err := cc.Progress(); err != nil {
				return 0, err
			}
		}
		lat = append(lat, int64(time.Since(t0)))
		if !ok {
			return 0, fmt.Errorf("rpcrdma round trip: %w", errWrongAnswer)
		}
	}
	return medianUS(lat), nil
}

// deserTimes times the compiled-plan Scan and Fill the DPU runs, with the
// DPU's options, on the workload's requests: mean ns per request over the
// op list's mix. Fill includes placing scatter-gather segments.
func (r *runner) deserTimes(calls []wireCall, budget time.Duration) (scanNS, fillNS float64, err error) {
	d := deser.New(deser.Options{ValidateUTF8: true, ScalarUTF8: true, SGPayloadMin: r.spec.Options.SGPayloadMin})
	type prepared struct {
		plan   *deser.Plan
		data   []byte
		notes  *deser.Notes
		bump   *arena.Bump
		segDst []byte
		segOff uint64
	}
	const base = 64
	prep := make([]prepared, len(calls))
	defer func() {
		for _, p := range prep {
			if p.notes != nil {
				p.notes.Release()
			}
		}
	}()
	for i, c := range calls {
		lay := r.schema.Table.ByName(c.input)
		if lay == nil {
			return 0, 0, fmt.Errorf("deser: no layout for %s", c.input)
		}
		p := deser.PlanFor(lay)
		no, err := d.Scan(p, c.req)
		if err != nil {
			return 0, 0, fmt.Errorf("deser: scan %s: %w", c.method, err)
		}
		obj := (no.Need() + 7) &^ 7
		prep[i] = prepared{plan: p, data: c.req, notes: no, bump: arena.NewBump(make([]byte, obj)),
			segDst: make([]byte, no.SegBytes()), segOff: uint64(base + obj)}
	}
	timeLoop := func(each func(p *prepared) error) (float64, error) {
		n := 0
		start := time.Now()
		until := start.Add(budget / 2)
		for time.Now().Before(until) {
			for i := range prep {
				if err := each(&prep[i]); err != nil {
					return 0, err
				}
			}
			n += len(prep)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	}
	scanNS, err = timeLoop(func(p *prepared) error {
		no, err := d.Scan(p.plan, p.data)
		if err != nil {
			return err
		}
		no.Release()
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	var refs []deser.SegRef
	fillNS, err = timeLoop(func(p *prepared) error {
		p.bump.Reset()
		if p.notes.SegCount() == 0 {
			_, err := d.Fill(p.plan, p.data, p.notes, p.bump, base)
			return err
		}
		if _, err := d.FillSG(p.plan, p.data, p.notes, p.bump, base, p.segOff); err != nil {
			return err
		}
		refs = d.PlaceSegments(p.data, p.notes, p.segDst, refs[:0])
		return nil
	})
	return scanNS, fillNS, err
}

// cacheGet times hit-path rpccache Gets keyed by the workload's requests,
// on a cache holding every one of them.
func (r *runner) cacheGet(calls []wireCall, budget time.Duration) (float64, error) {
	ids := map[string]uint16{}
	for i, name := range offload.MethodNames(r.schema.Table) {
		ids[name] = uint16(i)
	}
	c := rpccache.New(rpccache.Config{MaxBytes: 256 << 20})
	for _, call := range calls {
		c.Put(ids[call.method], call.req, call.resp, 0)
	}
	n := 0
	start := time.Now()
	until := start.Add(budget)
	for time.Now().Before(until) {
		for _, call := range calls {
			if _, _, ok := c.Get(ids[call.method], call.req); !ok {
				return 0, fmt.Errorf("rpccache: miss on a stored %s key", call.method)
			}
		}
		n += len(calls)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}
