package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/scenario"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
	"pds/internal/workload"
)

// Part III shape shared by the three aggregation workloads, so their
// crypto per tuple is the same and only the wire differs.
const (
	aggChunk   = 64
	aggArity   = 16
	aggRetries = 25
	aggShards  = 3
	// noisePerTuple fakes are sent per true tuple by the Noise query.
	noisePerTuple = 1.0
	// histBuckets is the equi-depth bucket count of the Histogram query.
	histBuckets = 4
)

// aggBench runs analyst queries back to back over one population
// (closed loop: one querier, the next query after the last answer).
type aggBench struct {
	kind    string // "mix", "lossy" or "fleet"
	seed    int64
	workers int
	parts   []gquery.Participant
	kr      *gquery.Keyring
	want    gquery.Result
	buckets []gquery.Bucket
	wantBkt gquery.BucketResult
	faults  *netsim.FaultPlan

	// per unit: a fresh wire and SSI, so units do not share state
	wire  tnet.Transport
	infra gquery.Infra
	units int

	// fleet-tcp: an in-process switch, the querier's connection, and
	// one SSI node serving on its own connection
	plan    scenario.Plan
	sw      *tnet.Switch
	qconn   *tnet.TCP
	node    *tnet.TCP
	nodeErr chan error
}

func setupAgg(kind string) func(sizes, int64) (bench, error) {
	return func(sz sizes, seed int64) (bench, error) {
		b := &aggBench{kind: kind, seed: seed, workers: runtime.NumCPU()}
		var err error
		if kind == "fleet" {
			b.plan = scenario.Plan{
				Name: "perfbench-fleet", Tokens: sz.tokens, TuplesEach: sz.tuples, Seed: seed,
				Shards: 1, ChunkSize: aggChunk, Workers: b.workers, Tree: aggArity, RestartShard: -1,
			}
			b.parts = b.plan.Participants()
			if b.kr, err = b.plan.Keyring(); err != nil {
				return nil, err
			}
			if err := b.dial(); err != nil {
				b.close()
				return nil, err
			}
		} else {
			b.parts = workload.Participants(sz.tokens, sz.tuples, seed)
			master := sha256.Sum256([]byte(fmt.Sprintf("perfbench:%d", seed)))
			if b.kr, err = gquery.KeyringFrom(master[:]); err != nil {
				return nil, err
			}
			if b.buckets, err = gquery.EquiDepthBuckets(workload.Diagnoses, nil, histBuckets); err != nil {
				return nil, err
			}
			b.wantBkt = plainBuckets(b.parts, b.buckets)
		}
		if kind == "lossy" {
			p, ok := scenario.ByName("lossy-256")
			if !ok || p.Faults == nil {
				return nil, errors.New("scenario plan lossy-256 with a fault plan not found")
			}
			b.faults = p.Faults
		}
		b.want = gquery.PlainResult(b.parts)
		// Warm-up: one unit, so lazy initialisation and first-touch
		// costs land in set-up, not in the first timed unit.
		if err := b.prepare(); err != nil {
			b.close()
			return nil, err
		}
		if _, err := b.unit(nil); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	}
}

// plainBuckets is the exact per-bucket aggregate, the reference the
// Histogram protocol's result must equal.
func plainBuckets(parts []gquery.Participant, buckets []gquery.Bucket) gquery.BucketResult {
	out := gquery.BucketResult{}
	for _, p := range parts {
		for _, t := range p.Tuples {
			i := gquery.BucketOf(buckets, t.Group)
			out[i] = out[i].Fold(t.Value)
		}
	}
	return out
}

// dial builds the fleet's switch and querier connection.
func (b *aggBench) dial() error {
	var err error
	if b.sw, err = tnet.NewSwitch(); err != nil {
		return err
	}
	b.qconn, err = tnet.Dial(b.sw.Addr(), "querier")
	return err
}

// startNode starts a fresh SSI node and waits until it answers. The
// connection is named after the shard endpoint, so the switch forwards
// to it from the moment Dial returns.
func (b *aggBench) startNode() error {
	conn, err := tnet.Dial(b.sw.Addr(), scenario.Dest(0))
	if err != nil {
		return err
	}
	b.node = conn
	b.nodeErr = make(chan error, 1)
	go func() {
		_, err := scenario.ServeSSI(conn, 0, b.plan, 0)
		b.nodeErr <- err
	}()
	// ServeSSI attaches its registry first and registers its call
	// handlers right after, without blocking. Waiting for the registry
	// keeps WaitReady's first ping from reaching a node with no ping
	// handler yet, which would cost a 250 ms ping timeout.
	for conn.Observer() == nil {
		time.Sleep(50 * time.Microsecond)
	}
	infra := scenario.NewRemoteInfra(b.qconn, 1)
	if err := infra.WaitReady(15 * time.Second); err != nil {
		return err
	}
	b.infra = infra
	return nil
}

// stopNode closes the SSI node's connection and waits for it to exit.
func (b *aggBench) stopNode() {
	if b.node == nil {
		return
	}
	b.node.Close()
	<-b.nodeErr
	b.node = nil
}

func (b *aggBench) prepare() error {
	if b.kind == "fleet" {
		b.stopNode()
		b.wire = b.qconn
		return b.startNode()
	}
	w := netsim.New()
	b.wire = w
	if b.kind == "lossy" {
		ss, err := ssi.NewShardSet(w, aggShards, ssi.HonestButCurious, ssi.Behavior{})
		if err != nil {
			return err
		}
		b.infra = ss
		return nil
	}
	b.infra = ssi.New(w, ssi.HonestButCurious, ssi.Behavior{})
	return nil
}

func (b *aggBench) engine() *gquery.Engine {
	opts := []gquery.Option{gquery.WithWorkers(b.workers), gquery.WithTopology(gquery.Tree(aggArity))}
	if b.faults != nil {
		opts = append(opts, gquery.WithFaults(b.faults), gquery.WithRetries(aggRetries))
	}
	return gquery.New(opts...)
}

var allocMetrics = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}

func readAllocs() (objs, bytes uint64) {
	s := append([]metrics.Sample(nil), allocMetrics...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// unit runs the workload's queries once and checks each answer against
// the plain computation. A query that errors is a failed op; a wrong
// answer fails the run.
func (b *aggBench) unit(tr *tracer) (unitOut, error) {
	wire, infra := b.wire, b.infra
	if tr != nil {
		layer := "wire"
		if b.kind == "fleet" {
			layer = "transport"
		}
		wire = &tracedWire{Transport: wire, tr: tr, layer: layer}
		infra = &tracedInfra{Infra: infra, tr: tr}
	}
	eng := b.engine()
	var u unitOut
	if b.faults != nil {
		// Every lossy unit does different work (see Noise in README.md).
		u.input = b.units
	}
	b.units++
	var stats []gquery.RunStats
	var fp []string
	tokens := int64(len(b.parts))
	o0, b0 := readAllocs()
	record := func(name string, st gquery.RunStats, err error, exact bool) error {
		u.attempted += tokens
		switch {
		case b.faults != nil:
			// Lossy wire: which frames drop, and so the cost and
			// whether the retry budget holds, changes every run.
			fp = append(fp, name)
		case err != nil:
			fp = append(fp, name+":error")
		default:
			// Clean wire: cost, tree shape and critical path are fixed.
			fp = append(fp, fmt.Sprintf("%s:msgs=%d,bytes=%d,depth=%d,nodes=%d,chunks=%d,crit=%d",
				name, st.Net.Messages, st.Net.Bytes, st.TreeDepth, st.TreeNodes, st.Chunks, st.CriticalPath.TotalNS))
		}
		if err != nil {
			return nil
		}
		if !exact {
			return incorrect("%s result differs from the plain computation", name)
		}
		u.ok += tokens
		u.sloMet += tokens // no latency target for an analyst's query: exact is met
		stats = append(stats, st)
		u.virtNS = append(u.virtNS, st.CriticalPath.TotalNS)
		u.critNS += st.CriticalPath.TotalNS
		return nil
	}
	res, st, err := eng.SecureAgg(wire, infra, b.parts, b.kr, aggChunk)
	if err := record("secure-agg", st, err, err == nil && maps.Equal(res, b.want)); err != nil {
		return u, err
	}
	if b.kind == "mix" {
		res, st, err = eng.Noise(wire, infra, b.parts, b.kr, workload.Diagnoses, noisePerTuple, gquery.ControlledNoise, b.seed)
		if err := record("noise", st, err, err == nil && maps.Equal(res, b.want)); err != nil {
			return u, err
		}
		br, st, err := eng.Histogram(wire, infra, b.parts, b.kr, b.buckets)
		if err := record("histogram", st, err, err == nil && maps.Equal(br, b.wantBkt)); err != nil {
			return u, err
		}
	}
	o1, b1 := readAllocs()
	u.fingerprint = strings.Join(fp, " ")
	if len(stats) == 0 {
		return u, nil
	}

	queries := float64(len(stats))
	var msgs, byts, retrans, acks float64
	var backoff time.Duration
	var depth, nodes, chunks float64
	for _, s := range stats {
		msgs += float64(s.Net.Messages)
		byts += float64(s.Net.Bytes)
		retrans += float64(s.Retransmits)
		acks += float64(s.AckMessages)
		backoff += s.RetryBackoff
		depth += float64(s.TreeDepth)
		nodes += float64(s.TreeNodes)
		chunks += float64(s.Chunks)
	}
	contributions := float64(u.ok)
	u.counts = map[string]float64{
		"gquery.allocs_per_token":    float64(o1-o0) / contributions,
		"gquery.alloc_kib_per_token": float64(b1-b0) / 1024 / contributions,
		"fold.tree_depth":            depth / queries,
		"fold.tree_nodes":            nodes / queries,
		"ssi.chunks":                 chunks / queries,
		"wire.msgs_per_token":        msgs / contributions,
		"wire.bytes_per_token":       byts / contributions,
		"arq.retransmits_per_msg":    retrans / msgs,
		"arq.acks_per_msg":           acks / msgs,
		"arq.backoff_virt_s":         backoff.Seconds() / queries,
		"queries":                    queries,
	}
	return u, nil
}

// verify runs the fleet's own querier once: its report must be OK and
// exact, and the SSI node must have received every upload.
func (b *aggBench) verify() (float64, error) {
	if b.kind != "fleet" {
		return 0, nil
	}
	if err := b.prepare(); err != nil {
		return 0, err
	}
	rep, err := scenario.RunQuerier(b.qconn, b.plan)
	if err != nil {
		return 0, err
	}
	if !rep.OK || !rep.Exact {
		return 0, incorrect("fleet report: ok=%v exact=%v failure=%q", rep.OK, rep.Exact, rep.Failure)
	}
	if want := len(b.parts) * b.plan.TuplesEach; len(rep.SSI) != 1 || rep.SSI[0].Received != want {
		return 0, incorrect("fleet SSI node received %v uploads, want %d", rep.SSI, want)
	}
	return 0, nil
}

// layers reports the Part III per-layer metrics: span self times per
// query from the traced units, counts from the untraced ones.
func (b *aggBench) layers(tr *tracer, units []unitOut) map[string]float64 {
	out := meanCounts(units)
	queries := out["queries"]
	delete(out, "queries")
	perQuery := func(layer string) float64 { return tr.selfMS(layer) / queries }
	wireLayer := "wire"
	if b.kind == "fleet" {
		wireLayer = "transport"
		rtt := tr.selfNS["transport"]
		out["transport.rtt_us_p50"] = float64(exactQuantile(rtt, 0.50)) / 1e3
		out["transport.rtt_us_p99"] = float64(exactQuantile(rtt, 0.99)) / 1e3
	}
	out[wireLayer+".self_ms"] = perQuery(wireLayer)
	out["ssi.receive_ms"] = perQuery("ssi.receive")
	out["ssi.partition_ms"] = perQuery("ssi.partition")
	// Engine time: wall time per query with no wire or SSI call open.
	out["gquery.self_ms"] = tr.uncoveredMS() / queries
	return out
}

// meanCounts averages the units' counts.
func meanCounts(units []unitOut) map[string]float64 {
	out := map[string]float64{}
	for _, u := range units {
		for k, v := range u.counts {
			out[k] += v / float64(len(units))
		}
	}
	return out
}

func (b *aggBench) close() {
	b.stopNode()
	if b.qconn != nil {
		b.qconn.Close()
	}
	if b.sw != nil {
		b.sw.Close()
	}
}
