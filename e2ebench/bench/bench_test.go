package bench

import (
	"testing"
	"time"
)

func testInputs(t *testing.T, workload string) *inputs {
	t.Helper()
	spec, err := SpecFor(workload)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := ParseSchema()
	if err != nil {
		t.Fatal(err)
	}
	return newInputs(schema, spec, 7)
}

// The generated requests have the wire sizes the workloads are defined by.
func TestEncodedSizes(t *testing.T) {
	small := testInputs(t, SmallSerial)
	for _, o := range small.pools[opSmall] {
		if len(o.req) != 15 {
			t.Fatalf("Small request is %d bytes, want 15", len(o.req))
		}
	}
	payload := testInputs(t, PayloadPipelined)
	for kind, want := range map[opKind]int{opInts: 276, opChars: 8003, opEcho: 8003, opBlob: 65540} {
		for _, o := range payload.pools[kind] {
			if len(o.req) != want {
				t.Fatalf("%s request is %d bytes, want %d", o.method, len(o.req), want)
			}
		}
	}
}

// Inputs depend on the seed alone, and slot g of n writes only keys it owns,
// so at most one Put per key is ever in flight.
func TestSlotOps(t *testing.T) {
	a, b := testInputs(t, KVCached), testInputs(t, KVCached)
	n := loadedConns * serialWindow
	for g := 0; g < n; g++ {
		x, y := a.slotOps(g, n), b.slotOps(g, n)
		for i := range x {
			if x[i].method != y[i].method || x[i].key != y[i].key {
				t.Fatalf("slot %d op %d differs between two generations from one seed", g, i)
			}
			if x[i].kind == opPut && int(x[i].key-1)%n != g {
				t.Fatalf("slot %d writes key %d it does not own", g, x[i].key)
			}
		}
	}
}

// check flags each kind of wrong answer without a stack in the way.
func TestCheckVerdicts(t *testing.T) {
	in := testInputs(t, PayloadPipelined)
	led := newLedger(7)
	ints := &in.pools[opInts][0]
	bad := append([]byte(nil), ints.want...)
	bad[len(bad)-1] ^= 1
	if v := led.check(&pending{op: ints}, bad); v != verdictWrong {
		t.Errorf("wrong digest: verdict %d, want wrong", v)
	}
	echo := &in.pools[opEcho][0]
	if v := led.check(&pending{op: echo}, echo.req[:len(echo.req)-1]); v != verdictWrong {
		t.Errorf("truncated echo: verdict %d, want wrong", v)
	}
	if v := led.check(&pending{op: echo}, echo.req); v != verdictOK {
		t.Errorf("exact echo: verdict %d, want ok", v)
	}

	get := op{kind: opGet, method: mGet, key: 9}
	led.issued[9].Store(2)
	old := appendPut(nil, 7, 9, 1)
	if v := led.check(&pending{op: &get, version: 2}, old); v != verdictStale {
		t.Errorf("Get older than the acked Put: verdict %d, want stale", v)
	}
	if v := led.check(&pending{op: &get, version: 1}, old); v != verdictOK {
		t.Errorf("Get of the acked Put: verdict %d, want ok", v)
	}
	if v := led.check(&pending{op: &get, version: 1}, appendPut(nil, 7, 9, 3)); v != verdictWrong {
		t.Errorf("Get of a version never written: verdict %d, want wrong", v)
	}
}

// runOps starts a stack with svc, drives ops sequentially over xRPC and
// returns the phase's tally.
func runOps(t *testing.T, workload string, svc ServiceOptions, ops func(in *inputs) []op) PhaseCount {
	t.Helper()
	r, err := start(Options{Workload: workload, Seed: 7, Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	s := newSlot(r.seq.c, r.led, ops(r.in))
	ph := r.newPhase("test")
	for i := 0; i < 2*len(s.ops); i++ {
		s.once(ph, nil)
	}
	return ph.count()
}

// A broken service is caught end to end: each wrong answer counts as a
// failed operation, and the intact service fails none.
func TestWrongAnswersCountAsFailed(t *testing.T) {
	digest := func(in *inputs) []op { return []op{in.pools[opInts][0], in.pools[opChars][0]} }
	echo := func(in *inputs) []op { return []op{in.pools[opEcho][0], in.pools[opBlob][0]} }
	putGet := func(in *inputs) []op { return []op{{kind: opPut, method: mPut, key: 5}, in.get[5]} }
	cases := []struct {
		name     string
		workload string
		broken   ServiceOptions
		ops      func(*inputs) []op
		stale    bool
	}{
		{"wrong digest", PayloadPipelined, ServiceOptions{WrongDigest: true}, digest, false},
		{"truncated echo", PayloadPipelined, ServiceOptions{TruncateEcho: true}, echo, false},
		{"stale get", KVCached, ServiceOptions{StaleGet: true}, putGet, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ok := runOps(t, tc.workload, ServiceOptions{}, tc.ops)
			if ok.Attempted != 4 || ok.Failed != 0 {
				t.Fatalf("intact service: %+v, want 4 attempted and none failed", ok)
			}
			got := runOps(t, tc.workload, tc.broken, tc.ops)
			want := uint64(4)
			if tc.stale {
				want = 2 // only the Gets are wrong
				if got.Stale != want {
					t.Errorf("stale = %d, want %d", got.Stale, want)
				}
			}
			if got.Failed != want || got.Wrong != want {
				t.Errorf("broken service: %+v, want %d failed and wrong", got, want)
			}
		})
	}
}

// The traced run's rows partition the end-to-end time, on every workload.
func TestTraceRowsAddUp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three traced workloads")
	}
	for _, w := range Workloads {
		rep := runWithin(t, Options{Workload: w, Seed: 3, Seconds: 2, Trace: true})
		if c := rep.Totals(); c.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", w, c.Failed, c.Attempted)
		}
		for _, ph := range []string{"seq", "load"} {
			var sum, e2e float64
			for _, m := range rep.Metrics {
				switch m.Name {
				case "trace." + ph + ".e2e.mean_us":
					e2e = m.Value
				case "trace." + ph + ".traces":
				default:
					if len(m.Name) > len("trace."+ph+".") && m.Name[:len("trace."+ph+".")] == "trace."+ph+"." {
						sum += m.Value
					}
				}
			}
			if e2e <= 0 || sum < e2e*(1-1e-9) || sum > e2e*(1+1e-9) {
				t.Errorf("%s %s: rows sum to %g us, e2e mean is %g us", w, ph, sum, e2e)
			}
		}
	}
}

// runWithin runs o and fails the test if the run errs or outlasts the limit
// the command sets, 2×Seconds+60 s: the pooled datapath can wedge with
// every call pending, and the test should then say so rather than hang.
func runWithin(t *testing.T, o Options) *Report {
	t.Helper()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Run(o)
		done <- result{rep, err}
	}()
	limit := time.Duration((2*o.Seconds + 60) * float64(time.Second))
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("%s: %v", o.Workload, res.err)
		}
		return res.rep
	case <-time.After(limit):
		t.Fatalf("%s: run did not finish within %s; the stack stopped answering (every call pending)", o.Workload, limit)
		return nil
	}
}

// Each latency lands in a bucket whose middle is within 0.8% of it, and
// buckets follow the latencies' order.
func TestHistBuckets(t *testing.T) {
	prev := -1
	for ns := int64(0); ns < 1<<30; ns += 1 + ns/97 {
		i := histIndex(ns)
		if i < prev {
			t.Fatalf("bucket of %d ns is %d, below %d of a smaller latency", ns, i, prev)
		}
		prev = i
		if mid := histMid(i); ns > 0 && (mid < float64(ns)*0.992 || mid > float64(ns)*1.008) {
			t.Fatalf("%d ns reads as %g ns", ns, mid)
		}
	}
	var h latHist
	for ns := int64(1000); ns <= 100000; ns += 1000 {
		h.add(ns)
	}
	if got := h.quantileUS(0.5); got < 49.6 || got > 50.4 {
		t.Fatalf("median of 1..100 us reads %g us", got)
	}
}
