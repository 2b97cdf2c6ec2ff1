package bench

import (
	"math/bits"
	"sync/atomic"
)

// Latency histograms are log-linear: below 2^histSubBits ns every
// nanosecond has its bucket, above it every power of two is split into
// 2^histSubBits buckets, so a bucket spans under 0.8% of its values.
// Latencies from 2^histMaxBits ns up share the last bucket.
const (
	histSubBits = 7
	histMaxBits = 36 // about 69 s
	histBuckets = (histMaxBits - histSubBits + 1) << histSubBits
)

// latHist counts latencies in fixed buckets; slots add to it concurrently.
// It keeps the same few kilobytes however many calls it counts.
type latHist struct {
	n [histBuckets]atomic.Uint64
}

func histIndex(ns int64) int {
	if ns < 1<<histSubBits {
		return max(int(ns), 0)
	}
	if ns >= 1<<histMaxBits {
		return histBuckets - 1
	}
	e := bits.Len64(uint64(ns)) - 1 - histSubBits
	return (e+1)<<histSubBits + int(uint64(ns)>>e) - 1<<histSubBits
}

// histMid is the middle of bucket i, in ns.
func histMid(i int) float64 {
	if i < 1<<histSubBits {
		return float64(i)
	}
	e := i>>histSubBits - 1
	lo := uint64(i&(1<<histSubBits-1)+1<<histSubBits) << e
	return float64(lo) + float64(uint64(1)<<e)/2
}

func (h *latHist) add(ns int64) { h.n[histIndex(ns)].Add(1) }

// reset empties the histogram; no slot may be adding to it.
func (h *latHist) reset() {
	for i := range h.n {
		h.n[i].Store(0)
	}
}

func (h *latHist) count() uint64 {
	var c uint64
	for i := range h.n {
		c += h.n[i].Load()
	}
	return c
}

// quantileUS is the q-quantile (ceil-rank, as quantileUS of samples) in
// microseconds, taken as the middle of its bucket; 0 when empty.
func (h *latHist) quantileUS(q float64) float64 {
	total := h.count()
	if total == 0 {
		return 0
	}
	rank := max(uint64(float64(total)*q+0.999999999), 1)
	var c uint64
	for i := range h.n {
		if c += h.n[i].Load(); c >= rank {
			return histMid(i) / 1e3
		}
	}
	return histMid(histBuckets-1) / 1e3
}

// latHists is where timed slots count their calls: the current window's
// latencies, and each op kind's over the phase.
type latHists struct {
	window latHist
	kinds  [opPut + 1]latHist
}

func (h *latHists) add(k opKind, ns int64) {
	h.window.add(ns)
	h.kinds[k].add(ns)
}

func (h *latHists) resetKinds() {
	for k := range h.kinds {
		h.kinds[k].reset()
	}
}
