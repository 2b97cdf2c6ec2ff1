package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"

	"dpurpc"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/workload"
)

// Workload names.
const (
	SmallSerial      = "small_serial"
	PayloadPipelined = "payload_pipelined"
	KVCached         = "kv_cached"
)

// Workloads lists every workload in the order they are documented.
var Workloads = []string{SmallSerial, PayloadPipelined, KVCached}

// Shape of the generated inputs. Every workload draws its op lists from the
// seed; these constants fix what the seed cannot change.
const (
	seqOps  = 2048    // op list length of the sequential slot; cycled
	loadOps = 1 << 17 // op list length over all loaded slots; each cycles its share

	intsCount  = 128      // values per CallInts request (276 wire bytes)
	charsLen   = 8000     // CallChars / Echo string length (8003 wire bytes)
	blobLen    = 64 << 10 // EchoBlob payload (65540 wire bytes)
	sgMinBytes = 16 << 10 // SGPayloadMin on the pipelined stack

	catalogKeys  = 4096 // Lookup catalog size
	cacheEntries = 1024 // response-cache entry cap (< catalogKeys)
	zipfSkew     = 0.99 // Lookup popularity skew
	storeKeys    = 1024 // Get/Put key count (at least the loaded slot count)
	loadedConns  = 2    // client connections in the loaded phase
)

// Mix weights in percent, chosen so that no latency mode boundary sits near
// a median: Ints are 35% of payload calls, not half, and cache hits stay
// near a third of kv calls (see README).
var (
	payloadMix = []struct {
		kind opKind
		pct  int
	}{{opInts, 35}, {opChars, 30}, {opEcho, 25}, {opBlob, 10}}
	kvMix = []struct {
		kind opKind
		pct  int
	}{{opLookup, 45}, {opGet, 40}, {opPut, 15}}
)

type opKind uint8

const (
	opSmall opKind = iota
	opInts
	opChars
	opEcho
	opBlob
	opLookup
	opGet
	opPut
)

// op is one pre-generated call. req is the encoded request (nil for Put,
// whose version is assigned when it is issued) and want the exact response
// the client expects (nil for Get and Put, checked against ledger).
type op struct {
	kind   opKind
	method string
	req    []byte
	want   []byte
	key    uint32
}

// Spec describes one workload: the stack it runs on and its inputs.
type Spec struct {
	Name    string
	Options dpurpc.StackOptions
	kv      bool
	// window is the number of calls in flight per connection in the
	// loaded phase.
	window int
}

// Loaded-phase windows. On the serial stack 128 calls per connection keep
// both CPUs busy, so throughput follows the CPU time the process gets
// rather than when the pollers' 1 ms timed waits happen to end; with 32,
// throughput moved by a third between runs. The pooled stack stays at 32,
// where its datapath has not been seen to wedge (see README).
const (
	serialWindow = 128
	pooledWindow = 32
)

// nproc is the CPU count the pipelined stack sizes its pools to (at least 2,
// so the workload stays on the pooled execution mode).
func nproc() int {
	if n := runtime.NumCPU(); n > 2 {
		return n
	}
	return 2
}

// SpecFor returns the named workload.
func SpecFor(name string) (Spec, error) {
	switch name {
	case SmallSerial:
		return Spec{Name: name, window: serialWindow}, nil
	case PayloadPipelined:
		n := nproc()
		return Spec{Name: name, window: pooledWindow, Options: dpurpc.StackOptions{
			DPUWorkers: n, HostWorkers: n, CommitBatch: 8, SGPayloadMin: sgMinBytes,
		}}, nil
	case KVCached:
		return Spec{Name: name, kv: true, window: serialWindow, Options: dpurpc.StackOptions{
			CacheMethods: []string{mLookup}, CacheMaxEntries: cacheEntries,
		}}, nil
	}
	return Spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
}

// inputs are the pre-generated requests of one workload, with the exact
// responses the client expects, computed here from the generated values
// before encoding. Slot op lists index into these pools, so the large
// payloads exist once per process.
type inputs struct {
	spec  Spec
	seed  uint64
	pools map[opKind][]op
	// lookup and get are indexed by key (entry 0 unused).
	lookup, get []op
}

// Pool sizes: distinct payloads of each kind.
var poolSize = map[opKind]int{opSmall: 1024, opInts: 256, opChars: 128, opEcho: 128, opBlob: 32}

func newInputs(schema *dpurpc.Schema, spec Spec, seed uint64) *inputs {
	g := &gen{schema: schema, seed: seed}
	in := &inputs{spec: spec, seed: seed, pools: map[opKind][]op{}}
	rng := rand.New(rand.NewPCG(seed, 0x1D))
	fill := func(kind opKind, draw func() op) {
		pool := make([]op, 0, poolSize[kind])
		for len(pool) < cap(pool) {
			pool = append(pool, draw())
		}
		in.pools[kind] = pool
	}
	switch spec.Name {
	case SmallSerial:
		fill(opSmall, func() op { return g.small(rng) })
	case PayloadPipelined:
		for _, m := range payloadMix {
			kind := m.kind
			fill(kind, func() op { return g.payload(rng, kind) })
		}
	case KVCached:
		in.lookup = make([]op, catalogKeys+1)
		for k := 1; k <= catalogKeys; k++ {
			in.lookup[k] = g.lookup(uint32(k))
		}
		in.get = make([]op, storeKeys+1)
		for k := 1; k <= storeKeys; k++ {
			in.get[k] = g.get(uint32(k))
		}
	}
	return in
}

// first is the read-only call the set-up phase waits on.
func (in *inputs) first() *op {
	if in.spec.kv {
		return &in.lookup[1]
	}
	for _, kind := range []opKind{opSmall, opInts} {
		if p := in.pools[kind]; len(p) > 0 {
			return &p[0]
		}
	}
	panic("bench: workload without inputs")
}

// slotOps returns the op list of client slot g of n. Each slot draws from
// its own stream of the seed, so the inputs do not depend on scheduling.
// In the kv workload slot g writes only keys k with (k-1)%n == g, which
// keeps at most one Put per key in flight.
func (in *inputs) slotOps(slot, nslots int) []op {
	rng := rand.New(rand.NewPCG(in.seed, uint64(slot)<<32|uint64(nslots)))
	ops := make([]op, seqOps)
	if nslots > 1 {
		ops = make([]op, loadOps/nslots)
	}
	from := func(kind opKind) op {
		p := in.pools[kind]
		return p[rng.IntN(len(p))]
	}
	switch in.spec.Name {
	case SmallSerial:
		for i := range ops {
			ops[i] = from(opSmall)
		}
	case PayloadPipelined:
		for i := range ops {
			ops[i] = from(pick(rng, payloadMix))
		}
	case KVCached:
		zipf := workload.NewZipf(mt19937.New(uint32(in.seed)^uint32(slot*7919+nslots)), catalogKeys, zipfSkew)
		perm := rand.New(rand.NewPCG(in.seed, 0xCA7)).Perm(catalogKeys)
		owned := func() uint32 {
			n := (storeKeys - slot + nslots - 1) / nslots
			return uint32(1 + slot + nslots*rng.IntN(n))
		}
		for i := range ops {
			switch pick(rng, kvMix) {
			case opLookup:
				ops[i] = in.lookup[perm[zipf.Next()]+1]
			case opGet:
				ops[i] = in.get[1+rng.IntN(storeKeys)]
			default:
				ops[i] = op{kind: opPut, method: mPut, key: owned()}
			}
		}
	}
	return ops
}

// gen encodes requests and expected responses.
type gen struct {
	schema *dpurpc.Schema
	seed   uint64
}

func pick(rng *rand.Rand, mix []struct {
	kind opKind
	pct  int
}) opKind {
	r := rng.IntN(100)
	for _, m := range mix {
		if r < m.pct {
			return m.kind
		}
		r -= m.pct
	}
	return mix[len(mix)-1].kind
}

func (g *gen) msg(name string) *dpurpc.Message { return g.schema.NewMessage(name) }

func (g *gen) digestReply(sum uint64) []byte {
	m := g.msg("e2e.Digest")
	m.SetUint64("sum", sum)
	return m.Marshal(nil)
}

// small draws a Small whose encoding is exactly 15 bytes: a 2-byte id, a
// set flag, a 1-byte zigzag delta, a float and a 2-byte count.
func (g *gen) small(rng *rand.Rand) op {
	f := smallFields{
		id:    128 + rng.Uint32N(16384-128),
		flag:  true,
		delta: int32(rng.IntN(63)) + 1,
		ratio: 0.5 + rng.Float32(),
		count: 128 + rng.Uint64N(16384-128),
	}
	if rng.IntN(2) == 0 {
		f.delta = -f.delta
	}
	m := g.msg("e2e.Small")
	m.SetUint32("id", f.id)
	m.SetBool("flag", f.flag)
	m.SetInt32("delta", f.delta)
	m.SetFloat("ratio", f.ratio)
	m.SetUint64("count", f.count)
	return op{kind: opSmall, method: mSmall, req: m.Marshal(nil), want: g.digestReply(f.digest())}
}

func (g *gen) payload(rng *rand.Rand, kind opKind) op {
	switch kind {
	case opInts:
		// 111 two-byte and 17 three-byte varints: 273 packed bytes, 276 on
		// the wire.
		vals := make([]uint32, intsCount)
		for i := range vals {
			if i < 17 {
				vals[i] = 16384 + rng.Uint32N(1<<21-16384)
			} else {
				vals[i] = 128 + rng.Uint32N(16384-128)
			}
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		m := g.msg("e2e.IntArray")
		for _, v := range vals {
			m.AppendNum("values", uint64(v))
		}
		return op{kind: kind, method: mInts, req: m.Marshal(nil), want: g.digestReply(intsDigest(vals))}
	case opChars, opEcho:
		data := make([]byte, charsLen)
		for i := range data {
			data[i] = 'a' + byte(rng.IntN(26))
		}
		m := g.msg("e2e.CharArray")
		m.SetString("data", string(data))
		req := m.Marshal(nil)
		if kind == opEcho {
			return op{kind: kind, method: mEcho, req: req, want: req}
		}
		return op{kind: kind, method: mChars, req: req, want: g.digestReply(charsDigest(data))}
	default:
		data := make([]byte, blobLen)
		for i := 0; i < len(data); i += 8 {
			binary.LittleEndian.PutUint64(data[i:], rng.Uint64())
		}
		m := g.msg("e2e.Blob")
		m.SetBytes("data", data)
		req := m.Marshal(nil)
		return op{kind: opBlob, method: mBlob, req: req, want: req}
	}
}

func (g *gen) lookup(k uint32) op {
	req := g.msg("e2e.LookupRequest")
	req.SetUint32("key", k)
	price, name := catalogItem(g.seed, k)
	want := g.msg("e2e.Item")
	want.SetUint32("key", k)
	want.SetUint64("price", price)
	want.SetString("name", name)
	return op{kind: opLookup, method: mLookup, req: req.Marshal(nil), want: want.Marshal(nil), key: k}
}

func (g *gen) get(k uint32) op {
	req := g.msg("e2e.GetRequest")
	req.SetUint32("key", k)
	return op{kind: opGet, method: mGet, req: req.Marshal(nil), key: k}
}

// ledger is the client's own record of expected answers. For the store it
// keeps, per key, the newest version it has issued and the newest version
// whose Put it saw acknowledged.
type ledger struct {
	seed   uint64
	issued []atomic.Uint64
	acked  []atomic.Uint64
}

func newLedger(seed uint64) *ledger {
	return &ledger{seed: seed, issued: make([]atomic.Uint64, storeKeys+1), acked: make([]atomic.Uint64, storeKeys+1)}
}

// encodePut assigns the next version of key (the caller owns the key, so no
// other Put on it is in flight) and encodes the request into buf.
func (s *ledger) encodePut(buf []byte, key uint32) ([]byte, uint64) {
	v := s.issued[key].Load() + 1
	s.issued[key].Store(v)
	return appendPut(buf[:0], s.seed, key, v), v
}

// appendPut encodes PutRequest{key, version, value} by hand, so a Put costs
// the client no allocation.
func appendPut(b []byte, seed uint64, key uint32, version uint64) []byte {
	var val [storeValueLen]byte
	storeValue(&val, seed, key, version)
	b = append(b, 0x08)
	b = binary.AppendUvarint(b, uint64(key))
	b = append(b, 0x10)
	b = binary.AppendUvarint(b, version)
	b = append(b, 0x1a, storeValueLen)
	return append(b, val[:]...)
}

// kvFields decodes the key/version/value fields shared by Value and PutAck.
func kvFields(b []byte) (key uint32, version uint64, value []byte, ok bool) {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, 0, nil, false
		}
		b = b[n:]
		switch tag {
		case 0x08, 0x10:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return 0, 0, nil, false
			}
			b = b[n:]
			if tag == 0x08 {
				key = uint32(v)
			} else {
				version = v
			}
		case 0x1a:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return 0, 0, nil, false
			}
			value = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return 0, 0, nil, false
		}
	}
	return key, version, value, true
}

// pending is what a slot knows about its call in flight.
type pending struct {
	op      *op
	version uint64 // Put: the version sent; Get: the acked version at issue
}

// verdict classifies one response.
type verdict uint8

const (
	verdictOK    verdict = iota
	verdictWrong         // the response differs from what the client computed
	verdictStale         // a Get returned a version older than an acknowledged Put
)

// check compares a response with what the client computed for the call.
// It never retains resp.
func (s *ledger) check(p *pending, resp []byte) verdict {
	switch p.op.kind {
	case opGet:
		k, v, val, ok := kvFields(resp)
		if !ok || k != p.op.key {
			return verdictWrong
		}
		if v < p.version {
			return verdictStale
		}
		if v > s.issued[k].Load() {
			return verdictWrong
		}
		var want [storeValueLen]byte
		storeValue(&want, s.seed, k, v)
		if !bytes.Equal(val, want[:]) {
			return verdictWrong
		}
		return verdictOK
	case opPut:
		k, v, _, ok := kvFields(resp)
		if !ok || k != p.op.key || v != p.version {
			return verdictWrong
		}
		return verdictOK
	}
	if !bytes.Equal(resp, p.op.want) {
		return verdictWrong
	}
	return verdictOK
}

// begin prepares the payload of one call and records what check needs.
// buf is the slot's scratch for Put encodings.
func (s *ledger) begin(p *pending, o *op, buf []byte) []byte {
	p.op = o
	switch o.kind {
	case opPut:
		req, v := s.encodePut(buf, o.key)
		p.version = v
		return req
	case opGet:
		p.version = s.acked[o.key].Load()
	}
	return o.req
}

// done records an acknowledged Put.
func (s *ledger) done(p *pending) {
	if p.op.kind == opPut {
		s.acked[p.op.key].Store(p.version)
	}
}
