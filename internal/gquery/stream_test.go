package gquery

import (
	"errors"
	"testing"
	"time"

	"pds/internal/netsim"
	"pds/internal/ssi"
)

func TestStreamMatchesBatchSecureAgg(t *testing.T) {
	parts := makeParts(53, 3, testDomain, 7)
	kr := mustKeyring(t)
	want := PlainResult(parts)

	for _, topo := range []Topology{Flat(), Tree(2), Tree(16)} {
		for _, workers := range []int{1, 4} {
			net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
			eng := New(WithWorkers(workers), WithTopology(topo))
			res, stats, err := eng.SecureAggStream(net, srv, SliceSource(parts), kr, 5)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", topo, workers, err)
			}
			if !resultsEqual(res, want) {
				t.Fatalf("%v workers=%d: stream result diverges from ground truth", topo, workers)
			}
			if stats.Chunks == 0 || stats.WorkerCalls == 0 {
				t.Fatalf("%v workers=%d: stats not populated: %+v", topo, workers, stats)
			}
			if topo.IsTree() && (stats.TreeDepth < 2 || stats.TreeNodes == 0) {
				t.Fatalf("%v workers=%d: tree shape missing: depth=%d nodes=%d",
					topo, workers, stats.TreeDepth, stats.TreeNodes)
			}
			if !topo.IsTree() && (stats.TreeDepth != 0 || stats.TreeNodes != 0) {
				t.Fatalf("flat stream reported tree shape: %+v", stats)
			}
			// The phase breakdown names the four protocol phases only:
			// per-chunk dispatch spans nest under the open phase.
			for _, ph := range stats.CriticalPath.Phases {
				switch ph.Name {
				case PhaseCollect, PhasePartition, PhaseTokenFold, PhaseMerge:
				default:
					t.Fatalf("%v workers=%d: pseudo-phase %q in critical path", topo, workers, ph.Name)
				}
			}
			if len(stats.CriticalPath.Phases) != 4 {
				t.Fatalf("%v workers=%d: %d phases, want 4", topo, workers, len(stats.CriticalPath.Phases))
			}

			// Batch and stream run one fold plane: on the same SSI over a
			// clean wire they cost the same, fold the same tree and lay
			// out the same critical path.
			net, srv = freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
			bres, batch, err := eng.SecureAgg(net, srv, parts, kr, 5)
			if err != nil {
				t.Fatalf("%v workers=%d batch: %v", topo, workers, err)
			}
			if !resultsEqual(bres, res) {
				t.Fatalf("%v workers=%d: batch and stream results differ", topo, workers)
			}
			if batch.Net != stats.Net || batch.Chunks != stats.Chunks || batch.WorkerCalls != stats.WorkerCalls ||
				batch.TreeDepth != stats.TreeDepth || batch.TreeNodes != stats.TreeNodes ||
				batch.CriticalPath.TotalNS != stats.CriticalPath.TotalNS {
				t.Fatalf("%v workers=%d: batch/stream RunStats differ:\nbatch  %v chunks=%d calls=%d depth=%d nodes=%d crit=%d\nstream %v chunks=%d calls=%d depth=%d nodes=%d crit=%d",
					topo, workers,
					batch.Net, batch.Chunks, batch.WorkerCalls, batch.TreeDepth, batch.TreeNodes, batch.CriticalPath.TotalNS,
					stats.Net, stats.Chunks, stats.WorkerCalls, stats.TreeDepth, stats.TreeNodes, stats.CriticalPath.TotalNS)
			}
		}
	}
}

func TestStreamMatchesBatchOverShards(t *testing.T) {
	parts := makeParts(40, 2, testDomain, 11)
	kr := mustKeyring(t)
	want := PlainResult(parts)

	net := netsim.New()
	ss, err := ssi.NewShardSet(net, 3, ssi.HonestButCurious, ssi.Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := New(WithTopology(Tree(4))).SecureAggStream(net, ss, SliceSource(parts), kr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(res, want) {
		t.Fatal("sharded stream result diverges from ground truth")
	}
}

func TestStreamRejectsFaults(t *testing.T) {
	parts := makeParts(4, 1, testDomain, 1)
	kr := mustKeyring(t)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	plan := netsim.FaultPlan{Seed: 1, Default: netsim.FaultSpec{Drop: 0.1}}
	_, _, err := New(WithFaults(&plan)).SecureAggStream(net, srv, SliceSource(parts), kr, 2)
	if err == nil {
		t.Fatal("streaming run accepted a fault plane")
	}
}

func TestStreamDetectsMaliciousSSI(t *testing.T) {
	parts := makeParts(31, 2, testDomain, 3)
	kr := mustKeyring(t)
	for name, b := range map[string]ssi.Behavior{
		"drop":      {DropRate: 0.2, Seed: 5},
		"duplicate": {DuplicateRate: 0.2, Seed: 6},
		"forge":     {ForgeRate: 0.2, Seed: 7},
	} {
		for _, topo := range []Topology{Flat(), Tree(4)} {
			net, srv := freshRun(t, ssi.WeaklyMalicious, b)
			_, _, err := New(WithTopology(topo)).SecureAggStream(net, srv, SliceSource(parts), kr, 4)
			var det *DetectionError
			if !errors.As(err, &det) {
				t.Fatalf("%s %v: expected DetectionError, got %v", name, topo, err)
			}
		}
	}
}

func TestStreamShardFailureDetected(t *testing.T) {
	parts := makeParts(30, 2, testDomain, 9)
	kr := mustKeyring(t)
	net := netsim.New()
	ss, err := ssi.NewShardSet(net, 4, ssi.HonestButCurious, ssi.Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	ss.Fail(1)
	_, _, err = New(WithTopology(Tree(4))).SecureAggStream(net, ss, SliceSource(parts), kr, 4)
	var det *DetectionError
	if !errors.As(err, &det) {
		t.Fatalf("expected DetectionError after shard failure, got %v", err)
	}
	if !errors.Is(err, ErrDetected) {
		t.Fatal("DetectionError should match ErrDetected")
	}
}

func TestStreamTreeCriticalPathBelowFlat(t *testing.T) {
	parts := makeParts(256, 1, testDomain, 13)
	kr := mustKeyring(t)
	run := func(topo Topology) time.Duration {
		net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		_, stats, err := New(WithTopology(topo)).SecureAggStream(net, srv, SliceSource(parts), kr, 4)
		if err != nil {
			t.Fatal(err)
		}
		return time.Duration(stats.CriticalPath.TotalNS)
	}
	flat := run(Flat())
	tree := run(Tree(4))
	if tree >= flat {
		t.Fatalf("stream tree critical path (%v) not below flat (%v)", tree, flat)
	}
}
