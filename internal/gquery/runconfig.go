package gquery

import (
	"runtime"
	"sync"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// RunConfig parameterizes the execution engine of the Part III protocols.
// The protocols' token-side phases (decrypt, fold, discard fakes) are
// embarrassingly parallel across chunks — [TNP14] explicitly models the
// participant tokens as an independent worker fleet behind the SSI — so the
// engine fans them out over a bounded pool. Workers = 1 is the faithful
// paper baseline (one token at a time); Workers = 0 uses every core
// (runtime.GOMAXPROCS). Results and RunStats are identical either way:
// partials are merged in deterministic chunk order.
type RunConfig struct {
	// Workers bounds the simulated token fleet: 0 means GOMAXPROCS,
	// 1 means serial.
	Workers int

	// Faults, when non-nil, arms the netsim fault plane with this seeded
	// schedule and routes every protocol leg over reliable ARQ links
	// (sequence numbers, integrity tags, ack/retry with backoff). Nil — the
	// default — keeps the historical direct wire: byte-identical costs to
	// the pre-reliability engine.
	Faults *netsim.FaultPlan
	// MaxRetries bounds retransmissions per frame when Faults is set;
	// <= 0 selects netsim.DefaultMaxRetries. Retransmissions wait
	// netsim.DefaultBackoff, doubling per retry.
	MaxRetries int

	// Topology selects the fan-in structure of the aggregation plane:
	// the zero value is the flat historical round trip (one final merge
	// token), Tree(k) folds partials up a k-ary tree of interior tokens
	// so the merge plane is O(log n) deep. Results are identical either
	// way: GroupAgg.Merge is associative and commutative, and the
	// checksum sums are order-free.
	Topology Topology

	// observer, when non-nil, receives the run's metrics and spans merged
	// in at the end of the run. Set through gquery.WithObserver; every run
	// records into a run-local registry regardless, so RunStats derivation
	// does not depend on this being set.
	observer *obs.Registry
}

// Serial is the paper-faithful single-token configuration.
func Serial() RunConfig { return RunConfig{Workers: 1} }

// Parallel uses the full machine as the token fleet.
func Parallel() RunConfig { return RunConfig{Workers: 0} }

// workers resolves the effective pool size for n independent work items.
func (c RunConfig) workers(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachChunk runs f(0..n-1) across the configured token fleet. With one
// worker it runs inline in index order — byte-identical to the historical
// serial loop. Callers collect per-index outputs and fold them in index
// order, so the fan-out never changes observable results.
func (c RunConfig) forEachChunk(n int, f func(i int)) {
	w := c.workers(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// chunkOutcome is the per-chunk output of a worker token, handed to
// the fold plane in deterministic chunk order. sealed and wire feed the
// plane: the partial's wire form and the chunk's clean-model traffic,
// which places the leaf on its virtual timeline.
type chunkOutcome struct {
	partial     partialAgg
	sealed      []byte
	worker      string
	wire        netsim.Stats
	macFailures int
	err         error
}
