package bench

import (
	"encoding/binary"
	"math"
	"sync"

	"dpurpc"
)

// schemaSource is the benchmark's own service definition. Bench carries the
// payload-shaped calls: each digest call answers with a digest of the
// fields the host decoded, so the client can check the DPU-built request
// object against the values it generated. KV is a small key-value service
// with host business logic: an immutable catalog read through Lookup and a
// mutable store read and written through Get and Put.
const schemaSource = `
syntax = "proto3";
package e2e;

message Small {
  uint32 id = 1;
  bool flag = 2;
  sint32 delta = 3;
  float ratio = 4;
  uint64 count = 5;
}
message IntArray { repeated uint32 values = 1; }
message CharArray { string data = 1; }
message Blob { bytes data = 1; }
message Digest { fixed64 sum = 1; }

message LookupRequest { uint32 key = 1; }
message Item {
  uint32 key = 1;
  uint64 price = 2;
  string name = 3;
}
message GetRequest { uint32 key = 1; }
message PutRequest {
  uint32 key = 1;
  uint64 version = 2;
  bytes value = 3;
}
message Value {
  uint32 key = 1;
  uint64 version = 2;
  bytes value = 3;
}
message PutAck {
  uint32 key = 1;
  uint64 version = 2;
}

service Bench {
  rpc CallSmall (Small) returns (Digest);
  rpc CallInts (IntArray) returns (Digest);
  rpc CallChars (CharArray) returns (Digest);
  rpc Echo (CharArray) returns (CharArray);
  rpc EchoBlob (Blob) returns (Blob);
}

service KV {
  rpc Lookup (LookupRequest) returns (Item);
  rpc Get (GetRequest) returns (Value);
  rpc Put (PutRequest) returns (PutAck);
}
`

// Full method names as they travel in xRPC frames.
const (
	mSmall  = "/e2e.Bench/CallSmall"
	mInts   = "/e2e.Bench/CallInts"
	mChars  = "/e2e.Bench/CallChars"
	mEcho   = "/e2e.Bench/Echo"
	mBlob   = "/e2e.Bench/EchoBlob"
	mLookup = "/e2e.KV/Lookup"
	mGet    = "/e2e.KV/Get"
	mPut    = "/e2e.KV/Put"
)

// ParseSchema parses the benchmark's service definition.
func ParseSchema() (*dpurpc.Schema, error) {
	return dpurpc.ParseSchema("e2e.proto", schemaSource)
}

// --- digests -------------------------------------------------------------

// digest is FNV-1a over 64-bit words and bytes. The host folds the fields
// it reads from the request view; the client folds the values it generated
// before encoding them.
type digest uint64

const fnvOffset digest = 14695981039346656037

func (d digest) word(v uint64) digest {
	for i := 0; i < 8; i++ {
		d ^= digest(byte(v >> (8 * i)))
		d *= 1099511628211
	}
	return d
}

func (d digest) bytes(b []byte) digest {
	for _, c := range b {
		d ^= digest(c)
		d *= 1099511628211
	}
	return d
}

// smallFields are the values of one Small request.
type smallFields struct {
	id    uint32
	flag  bool
	delta int32
	ratio float32
	count uint64
}

func (s smallFields) digest() uint64 {
	flag := uint64(0)
	if s.flag {
		flag = 1
	}
	return uint64(fnvOffset.word(uint64(s.id)).word(flag).word(uint64(uint32(s.delta))).
		word(uint64(math.Float32bits(s.ratio))).word(s.count))
}

func intsDigest(vals []uint32) uint64 {
	d := fnvOffset.word(uint64(len(vals)))
	for _, v := range vals {
		d = d.word(uint64(v))
	}
	return uint64(d)
}

func charsDigest(b []byte) uint64 { return uint64(fnvOffset.bytes(b)) }

// --- key-value data ------------------------------------------------------

// catalogItem derives the immutable catalog entry for key from the seed.
// The host builds its catalog with it at set-up; the client calls it on its
// own to know what Lookup must return.
func catalogItem(seed uint64, key uint32) (price uint64, name string) {
	h := splitmix(seed ^ uint64(key)<<20 ^ 0xC0FFEE)
	const hex = "0123456789abcdef"
	buf := []byte("item-00000000-")
	for i := 0; i < 8; i++ {
		buf[5+i] = hex[(key>>(28-4*i))&0xf]
	}
	for i := 0; i < 10; i++ {
		buf = append(buf, hex[(h>>(4*i))&0xf])
	}
	return h % 1000000, string(buf)
}

// storeValueLen is the size of every stored value.
const storeValueLen = 24

// storeValue derives the value written for (key, version).
func storeValue(dst *[storeValueLen]byte, seed uint64, key uint32, version uint64) {
	h := splitmix(seed ^ uint64(key)<<32 ^ version)
	for i := 0; i < storeValueLen; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], h)
		h = splitmix(h)
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// --- host business logic -------------------------------------------------

// ServiceOptions deliberately break the service, so the benchmark's tests
// can show that each kind of wrong answer is counted as failed.
type ServiceOptions struct {
	WrongDigest  bool   // digests are off by one
	TruncateEcho bool   // echoes drop their last byte
	StaleGet     bool   // Get answers the version before the latest
	OnPut        func() // runs after each Put is stored, before the ack
	Seed         uint64
}

type storeEntry struct {
	version uint64
	prev    uint64
}

// kvStore is the host's mutable state: the latest version of each key,
// under one mutex. Values are derived from (key, version), so only the
// versions are kept.
type kvStore struct {
	mu      sync.Mutex
	entries []storeEntry
}

// Impls builds the host handlers of both services.
func Impls(schema *dpurpc.Schema, o ServiceOptions) map[string]dpurpc.Impl {
	idx := func(msg, field string) int {
		return schema.Registry.Message(msg).FieldByName(field).Index
	}
	var (
		sID, sFlag, sDelta, sRatio, sCount = idx("e2e.Small", "id"), idx("e2e.Small", "flag"),
			idx("e2e.Small", "delta"), idx("e2e.Small", "ratio"), idx("e2e.Small", "count")
		iVals  = idx("e2e.IntArray", "values")
		cData  = idx("e2e.CharArray", "data")
		bData  = idx("e2e.Blob", "data")
		lKey   = idx("e2e.LookupRequest", "key")
		gKey   = idx("e2e.GetRequest", "key")
		pKey   = idx("e2e.PutRequest", "key")
		pVer   = idx("e2e.PutRequest", "version")
		pValue = idx("e2e.PutRequest", "value")
	)
	bump := uint64(0)
	if o.WrongDigest {
		bump = 1
	}
	digestReply := func(sum uint64) (*dpurpc.Message, uint16) {
		out := schema.NewMessage("e2e.Digest")
		out.SetUint64("sum", sum+bump)
		return out, 0
	}
	echo := func(b []byte) []byte {
		if o.TruncateEcho && len(b) > 0 {
			return b[:len(b)-1]
		}
		return b
	}

	type item struct {
		price uint64
		name  string
	}
	catalog := make([]item, catalogKeys+1)
	for k := 1; k <= catalogKeys; k++ {
		catalog[k].price, catalog[k].name = catalogItem(o.Seed, uint32(k))
	}
	store := &kvStore{entries: make([]storeEntry, storeKeys+1)}

	return map[string]dpurpc.Impl{
		"e2e.Bench": {
			"CallSmall": func(v dpurpc.View) (*dpurpc.Message, uint16) {
				return digestReply(smallFields{
					id: v.U32(sID), flag: v.Bool(sFlag), delta: v.I32(sDelta),
					ratio: v.F32(sRatio), count: v.U64(sCount),
				}.digest())
			},
			"CallInts": func(v dpurpc.View) (*dpurpc.Message, uint16) {
				n := v.Len(iVals)
				d := fnvOffset.word(uint64(n))
				for i := 0; i < n; i++ {
					d = d.word(uint64(uint32(v.NumAt(iVals, i))))
				}
				return digestReply(uint64(d))
			},
			"CallChars": func(v dpurpc.View) (*dpurpc.Message, uint16) {
				return digestReply(charsDigest(v.Str(cData)))
			},
			"Echo": func(v dpurpc.View) (*dpurpc.Message, uint16) {
				out := schema.NewMessage("e2e.CharArray")
				out.SetString("data", string(echo(v.Str(cData))))
				return out, 0
			},
			"EchoBlob": func(v dpurpc.View) (*dpurpc.Message, uint16) {
				out := schema.NewMessage("e2e.Blob")
				out.SetBytes("data", append([]byte(nil), echo(v.Str(bData))...))
				return out, 0
			},
		},
		"e2e.KV": {
			"Lookup": func(v dpurpc.View) (*dpurpc.Message, uint16) {
				k := v.U32(lKey)
				if k == 0 || int(k) > catalogKeys {
					return nil, 5 // NOT_FOUND
				}
				out := schema.NewMessage("e2e.Item")
				out.SetUint32("key", k)
				out.SetUint64("price", catalog[k].price)
				out.SetString("name", catalog[k].name)
				return out, 0
			},
			"Get": func(v dpurpc.View) (*dpurpc.Message, uint16) {
				k := v.U32(gKey)
				if k == 0 || int(k) > storeKeys {
					return nil, 5
				}
				store.mu.Lock()
				e := store.entries[k]
				store.mu.Unlock()
				ver := e.version
				if o.StaleGet {
					ver = e.prev
				}
				var val [storeValueLen]byte
				storeValue(&val, o.Seed, k, ver)
				out := schema.NewMessage("e2e.Value")
				out.SetUint32("key", k)
				out.SetUint64("version", ver)
				out.SetBytes("value", val[:])
				return out, 0
			},
			"Put": func(v dpurpc.View) (*dpurpc.Message, uint16) {
				k := v.U32(pKey)
				if k == 0 || int(k) > storeKeys {
					return nil, 5
				}
				ver := v.U64(pVer)
				var want [storeValueLen]byte
				storeValue(&want, o.Seed, k, ver)
				if string(v.Str(pValue)) != string(want[:]) {
					return nil, 3 // INVALID_ARGUMENT
				}
				store.mu.Lock()
				e := &store.entries[k]
				e.prev, e.version = e.version, ver
				store.mu.Unlock()
				if o.OnPut != nil {
					o.OnPut()
				}
				out := schema.NewMessage("e2e.PutAck")
				out.SetUint32("key", k)
				out.SetUint64("version", ver)
				return out, 0
			},
		},
	}
}
