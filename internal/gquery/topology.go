package gquery

import (
	"fmt"
	"strconv"
	"time"

	"pds/internal/netsim"
	"pds/internal/obs"
)

// DefaultTreeArity is the fan-in of Tree(0): wide enough that the tree
// stays shallow (a million tokens fold in five levels), narrow enough
// that no interior token ever holds more than a handful of partials.
const DefaultTreeArity = 16

// Topology selects the fan-in structure of the token fleet's
// aggregation plane. The zero value is the flat historical round trip:
// a one-node tree whose single final token absorbs every worker's
// partial — an O(n) serial tail. Tree(k) folds partials up a k-ary tree
// of interior tokens instead: each interior token merges at most k
// children and forwards one sealed partial upward, so the merge plane
// is O(log_k n) deep and the critical path scales with the depth, not
// the fleet.
type Topology struct {
	arity int
}

// Flat is the historical single-merge-token topology.
func Flat() Topology { return Topology{} }

// Tree arranges the fold plane as a k-ary fan-in tree; arity < 2
// selects DefaultTreeArity.
func Tree(arity int) Topology {
	if arity < 2 {
		arity = DefaultTreeArity
	}
	return Topology{arity: arity}
}

// IsTree reports whether the topology is hierarchical.
func (t Topology) IsTree() bool { return t.arity >= 2 }

// Arity returns the tree fan-in (0 for the flat topology).
func (t Topology) Arity() int { return t.arity }

func (t Topology) String() string {
	if !t.IsTree() {
		return "flat"
	}
	return fmt.Sprintf("tree(%d)", t.arity)
}

// treeNode is a finished fold-plane node: its partial, the partial's
// sealed wire form, and its timeline in fold-phase-relative virtual
// time.
type treeNode struct {
	partial partialAgg
	sealed  []byte
	worker  string
	start   time.Duration
	end     time.Duration
}

// foldNode is an interior token mid-fold: it has received, verified and
// merged the children so far, and started when the last of them arrived.
type foldNode struct {
	worker   string
	partial  partialAgg
	children int
	start    time.Duration
	wire     netsim.Stats // its own serial receive (+ forward) traffic
}

// planeLevel is one tree level's in-progress state: at most one open
// parent token, plus — in a tree — a lone child held back until a
// sibling shows up, since a level's last lone node is the root.
type planeLevel struct {
	open *foldNode
	held *treeNode
}

// foldPlane is the one fold plane behind every Part III run, batch or
// streaming, flat or tree. It takes chunk outcomes in chunk order and
// owns the rest of the fold: leaf accounting, interior folds, the root,
// the tree shape and the fold/merge phase layout.
//
// The model is the paper's asymmetric architecture: every token is its
// own serial resource while the SSI routing plane is never the
// bottleneck, so independent folds overlap and a node starts when its
// last child's partial has arrived. Each edge is a real protocol hop —
// the parent token MAC-verifies, decrypts and merges each child partial,
// so integrity checking happens at every level, not only at the root.
//
// Children are absorbed as they arrive, so the plane's state is
// O(log n) nodes however large the fleet. Tree(k) closes a parent after
// k children (contiguous arity blocks, level by level) and forwards its
// sealed partial upward; Flat is the degenerate one-node tree whose
// final token absorbs every leaf and, being the merge token itself,
// forwards nothing.
type foldPlane struct {
	tp    *transport
	kr    *Keyring
	arity int // 0: flat
	stats *RunStats
	err   error

	levels []planeLevel
	// record keeps every node's timeline (partials and sealed bytes
	// stripped) for span emission — O(chunks), not O(tuples).
	record [][]treeNode
}

func newFoldPlane(tp *transport, kr *Keyring, topo Topology, stats *RunStats) *foldPlane {
	return &foldPlane{tp: tp, kr: kr, arity: topo.Arity(), stats: stats}
}

// foldAll feeds a batch run's chunk outcomes to a fresh fold plane in
// index order and finishes it.
func (tp *transport) foldAll(kr *Keyring, topo Topology, outs []chunkOutcome, stats *RunStats) ([]partialAgg, error) {
	plane := newFoldPlane(tp, kr, topo, stats)
	for _, out := range outs {
		plane.leaf(out)
	}
	return plane.finish()
}

// leaf takes one completed chunk outcome, in chunk-index order.
func (f *foldPlane) leaf(out chunkOutcome) {
	if f.err != nil {
		return // drain mode: an earlier chunk already failed the run
	}
	f.stats.MACFailures += out.macFailures
	if out.macFailures > 0 {
		f.stats.Detected = true
	}
	if out.err != nil {
		f.err = out.err
		return
	}
	f.stats.WorkerCalls++
	f.err = f.add(0, treeNode{partial: out.partial, sealed: out.sealed, worker: out.worker, end: out.wire.Time(f.tp.ro.cost)})
}

// add places a finished node at its level, where the level's open
// parent token receives it; a parent that reaches the arity closes and
// climbs in turn.
func (f *foldPlane) add(level int, n treeNode) error {
	f.keep(level, n)
	for len(f.levels) <= level {
		f.levels = append(f.levels, planeLevel{})
	}
	lv := &f.levels[level]
	if f.arity > 0 && lv.open == nil && lv.held == nil {
		lv.held = &n
		return nil
	}
	if err := f.receive(level, n); err != nil {
		return err
	}
	if f.arity > 0 && lv.open.children == f.arity {
		up, err := f.close(level)
		if err != nil {
			return err
		}
		return f.add(level+1, up)
	}
	return nil
}

// keep records a node's timeline for span emission.
func (f *foldPlane) keep(level int, n treeNode) {
	for len(f.record) <= level {
		f.record = append(f.record, nil)
	}
	n.partial, n.sealed = partialAgg{}, nil
	f.record[level] = append(f.record[level], n)
}

// receive runs one tree edge into the level's open parent token —
// opening it, named by tree coordinate, on first use and taking in a
// held sibling first: the SSI hands the child's sealed partial to the
// parent, which verifies, decrypts and merges it.
func (f *foldPlane) receive(level int, c treeNode) error {
	lv := &f.levels[level]
	if lv.open == nil {
		j := 0
		if level+1 < len(f.record) {
			j = len(f.record[level+1])
		}
		lv.open = &foldNode{worker: fmt.Sprintf("tok@L%d.%d", level+1, j), partial: partialAgg{Aggs: map[string]GroupAgg{}}}
		if held := lv.held; held != nil {
			lv.held = nil
			if err := f.receive(level, *held); err != nil {
				return err
			}
		}
	}
	n := lv.open
	if c.end > n.start {
		n.start = c.end
	}
	n.children++
	n.wire.Messages++
	n.wire.Bytes += int64(len(c.sealed))
	var openErr error
	err := f.tp.send(netsim.Envelope{From: "ssi", To: n.worker, Kind: "tree-partial", Payload: c.sealed},
		func(e netsim.Envelope) {
			pt, ok := openSealed(f.kr, e.Payload, nil)
			if !ok {
				f.stats.MACFailures++
				f.stats.Detected = true
				return
			}
			p, err := decodePartial(pt)
			if err != nil {
				openErr = err
				return
			}
			n.partial.merge(p)
		})
	if err != nil {
		return err
	}
	return openErr
}

// close finishes the open parent token above a level. A tree node
// seals and uploads its merged partial for the level above; the flat
// plane's final token is the merge token itself and forwards nothing.
func (f *foldPlane) close(level int) (treeNode, error) {
	n := f.levels[level].open
	f.levels[level].open = nil
	out := treeNode{partial: n.partial, worker: n.worker, start: n.start}
	if f.arity > 0 {
		sealed, err := sealPartial(f.kr, n.partial)
		if err != nil {
			return out, err
		}
		n.wire.Messages++
		n.wire.Bytes += int64(len(sealed))
		if err := f.tp.send(netsim.Envelope{From: n.worker, To: "ssi", Kind: "partial", Payload: sealed}, nil); err != nil {
			return out, err
		}
		out.sealed = sealed
		f.stats.WorkerCalls++
		f.stats.TreeNodes++
	}
	out.end = n.start + n.wire.Time(f.tp.ro.cost)
	return out, nil
}

// root flushes the trailing blocks level by level and returns the root
// (ok=false when no leaf ever arrived). A level's lone node is the root
// when nothing sits above it, and otherwise still gets a parent.
func (f *foldPlane) root() (treeNode, bool, error) {
	for lvl := 0; lvl < len(f.levels); lvl++ {
		lv := &f.levels[lvl]
		if lv.held != nil {
			above := false
			for _, up := range f.levels[lvl+1:] {
				above = above || up.open != nil || up.held != nil
			}
			if !above {
				return *lv.held, true, nil
			}
			held := *lv.held
			lv.held = nil
			if err := f.receive(lvl, held); err != nil {
				return treeNode{}, false, err
			}
		}
		if lv.open == nil {
			continue
		}
		up, err := f.close(lvl)
		if err != nil {
			return treeNode{}, false, err
		}
		if f.arity == 0 {
			f.keep(lvl+1, up)
			return up, true, nil
		}
		if err := f.add(lvl+1, up); err != nil {
			return treeNode{}, false, err
		}
	}
	return treeNode{}, false, nil
}

// finish completes the fold and lays it out in virtual time, under the
// parallel-fleet model (phasePar absorbs the traffic already counted
// and advances by makespans): the plane's levels tile the open fold
// phase as explicit-time spans, and the phase closes at the root's end.
// The flat plane's serial tail is its final token's fold, so it lands
// in the fold phase exactly like a tree's interior folds.
func (f *foldPlane) finish() ([]partialAgg, error) {
	if f.err != nil {
		return nil, f.err
	}
	root, ok, err := f.root()
	if err != nil {
		return nil, err
	}
	base := f.tp.ro.reg.Clock().Now()
	tracer := f.tp.ro.reg.Tracer()
	for lvl, nodes := range f.record {
		emitLevel(tracer, f.tp.ro.cur, base, lvl, nodes)
	}
	f.tp.phasePar(PhaseMerge, root.end)
	if !ok {
		return nil, nil
	}
	if f.arity > 0 {
		f.stats.TreeDepth = len(f.record)
	}
	return []partialAgg{root.partial}, nil
}

// emitLevel lays one tree level out as explicit-time spans under the
// fold phase: a "tree-level" band spanning the level's active interval,
// with one "tree-fold" child per node — the shape the critical-path
// analyzer and the Perfetto export surface as the log-n staircase.
func emitLevel(tracer *obs.Tracer, foldPhase *obs.Span, base time.Duration, level int, nodes []treeNode) {
	if len(nodes) == 0 {
		return
	}
	lo, hi := nodes[0].start, nodes[0].end
	for _, n := range nodes[1:] {
		if n.start < lo {
			lo = n.start
		}
		if n.end > hi {
			hi = n.end
		}
	}
	lvl := tracer.StartAt("tree-level", foldPhase, base+lo)
	lvl.Annotate("level", strconv.Itoa(level))
	lvl.Annotate("nodes", strconv.Itoa(len(nodes)))
	for i, n := range nodes {
		sp := tracer.StartAt("tree-fold", lvl, base+n.start)
		sp.Annotate("level", strconv.Itoa(level))
		sp.Annotate("node", strconv.Itoa(i))
		sp.Annotate("worker", n.worker)
		sp.EndAt(base + n.end)
	}
	lvl.EndAt(base + hi)
}
