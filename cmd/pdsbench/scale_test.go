package main

import (
	"testing"

	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/ssi"
	"pds/internal/workload"
)

// benchSnapSeed seeds the regression gate's participant stream.
const benchSnapSeed = 42

// TestE20TreeCriticalPathRegression is the perf gate on the hierarchical
// fold plane: at 1e4 tokens the tree topology's simulated critical path
// must be strictly below the flat plane's (the whole point of the O(log n)
// fan-in), and both must produce the identical aggregate.
func TestE20TreeCriticalPathRegression(t *testing.T) {
	const fleet = 10_000
	kr, err := gquery.KeyringFrom(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	run := func(topo gquery.Topology) (gquery.Result, int64) {
		net := netsim.New()
		srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
		src := workload.ParticipantStream(fleet, 1, benchSnapSeed)
		res, stats, err := gquery.New(gquery.WithTopology(topo)).SecureAggStream(net, srv, src, kr, 64)
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		return res, stats.CriticalPath.TotalNS
	}
	flatRes, flatCrit := run(gquery.Flat())
	treeRes, treeCrit := run(gquery.Tree(16))
	if !resultsMatch(flatRes, treeRes) {
		t.Fatal("flat and tree streaming runs disagree on the aggregate")
	}
	if treeCrit >= flatCrit {
		t.Fatalf("tree sim critical path (%d ns) not strictly below flat (%d ns) at %d tokens",
			treeCrit, flatCrit, fleet)
	}
}
