// Command staleprobe reproduces a response-cache fault in the offloaded
// stack. It runs the kv_cached loaded mix with KV Get opted into the DPU
// response cache and every Put calling Stack.InvalidateMethod for Get before
// it is acknowledged, and prints how many Gets returned a version older than
// a Put the client had already seen acknowledged. A second leg runs with Get
// uncached and should print none.
//
// The fault: a Get that missed the cache and read the store before a Put
// can insert its response after that Put's invalidation, so later Gets hit
// the older version. rpccache.Cache.Put carries no invalidation generation,
// and the epoch check in offload's cacheInsert guards only reconnects.
//
//	go run ./staleprobe -seconds 10 -seed 1    (from the e2ebench directory)
package main

import (
	"flag"
	"fmt"
	"os"

	"dpurpc/e2ebench/bench"
)

func main() {
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "loaded seconds per leg")
	flag.Parse()
	for _, cached := range []bool{true, false} {
		stale, reads, err := bench.StaleProbe(*seed, *seconds, cached)
		if err != nil {
			fmt.Fprintln(os.Stderr, "staleprobe:", err)
			os.Exit(1)
		}
		leg := "Get uncached"
		if cached {
			leg = "Get cached, Put invalidates"
		}
		share := 0.0
		if reads > 0 {
			share = 100 * float64(stale) / float64(reads)
		}
		fmt.Printf("%-28s stale reads %d of %d (%.2f%%)\n", leg, stale, reads, share)
	}
}
