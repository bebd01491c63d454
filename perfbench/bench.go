package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// workloadSpec is one named input set of the benchmark.
type workloadSpec struct {
	name string
	size sizes
	// setup builds everything the timed body needs from the seed.
	setup func(sz sizes, seed int64) (bench, error)
}

// sizes scales a workload; the defaults are the benchmark's, tests pass
// smaller ones.
type sizes struct {
	tokens, tuples int // Part III population
	tenants        int // serve population
	arrivals       int // serve schedule length
	rate           float64
	zipf           float64
	ladderArrivals int // schedule length of each slo_max_rps ladder rung
}

// bench is a workload after set-up. Each timed unit is one fixed piece
// of work — a set of queries, or one pass over a serve schedule — so
// units of the same input repeat their deterministic outputs exactly.
type bench interface {
	// prepare readies the next unit outside the timed region (a fresh
	// SSI node or host, so units do not grow each other's state).
	prepare() error
	// unit runs and checks one unit; tr is nil in untraced units.
	unit(tr *tracer) (unitOut, error)
	// verify runs the reference checks after the timed body and returns
	// slo_max_rps where the workload defines it by a rate ladder.
	verify() (sloMaxRPS float64, err error)
	// layers turns the traced units into per-layer metrics.
	layers(tr *tracer, units []unitOut) map[string]float64
	close()
}

// unitOut is what one unit did.
type unitOut struct {
	ok, attempted int64
	// critNS is the unit's virtual completion time: the summed critical
	// path of its queries, or the virtual makespan of a serve pass.
	critNS int64
	// virtNS are the unit's per-request virtual latencies: per query
	// (Part III) or per served request (serve).
	virtNS []int64
	// sloMet counts requests answered correctly within the SLO target.
	sloMet int64
	// input numbers the unit's input: units with the same input, traced
	// or not, must produce the same fingerprint, which pins their
	// deterministic outputs. The virtual metrics count the first unit of
	// each input, so a bench whose units vary gives each its own input.
	input       int
	fingerprint string
	// counts are program counter deltas per unit (per-layer metrics).
	counts map[string]float64
}

// runDetail is what a run saw beyond its result line, for tests.
type runDetail struct {
	units                    []unitOut
	tracedRate, untracedRate float64
}

// run measures one workload: set-up opt.setups times, then units until
// opt.seconds have passed, then the reference checks.
func run(w workloadSpec, sz sizes, opt options) (result, runDetail, error) {
	res := result{Metrics: map[string]metric{}}
	var d runDetail
	var b bench
	var setupS []float64
	for i := 0; i < opt.setups; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := w.setup(sz, opt.seed)
		if err != nil {
			return res, d, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, since(t0))
		b = nb
	}
	defer b.close()

	var tr *tracer
	if opt.trace {
		tr = newTracer()
		tr.wireDelay = opt.wireDelay
	}
	hs := startHeapSampler()
	defer hs.close()
	first := map[int]int{} // input -> its first unit
	var (
		untraced                   []unitOut
		rates, cpus, heaps         []float64
		tracedRates, untracedRates []float64
	)
	start := time.Now()
	for i := 0; i < opt.minUnits || since(start) < opt.seconds; i++ {
		if err := b.prepare(); err != nil {
			return res, d, fmt.Errorf("prepare: %w", err)
		}
		runtime.GC()
		traced := opt.trace && i%2 == 1
		var ut *tracer
		if traced {
			ut = tr
			tr.begin()
		}
		hs.reset()
		c0 := cpuNow()
		t0 := time.Now()
		u, err := b.unit(ut)
		wall := since(t0)
		cpu := cpuNow() - c0
		peak := hs.reset()
		if traced {
			tr.end(wall)
		}
		if err != nil {
			return res, d, err
		}
		if j, ok := first[u.input]; !ok {
			first[u.input] = i
		} else if f := d.units[j].fingerprint; u.fingerprint != f {
			return res, d, incorrect("unit %d outputs differ from unit %d's, same input: %s vs %s", i, j, u.fingerprint, f)
		}
		d.units = append(d.units, u)
		rate := float64(u.ok) / wall
		rates = append(rates, rate)
		if traced {
			tracedRates = append(tracedRates, rate)
		} else {
			untraced = append(untraced, u)
			untracedRates = append(untracedRates, rate)
		}
		cpus = append(cpus, float64(cpu.Microseconds())/float64(u.attempted))
		heaps = append(heaps, float64(peak)/(1<<20))
	}
	body := since(start)
	d.tracedRate, d.untracedRate = median(tracedRates), median(untracedRates)
	sloMax, err := b.verify()
	if err != nil {
		return res, d, err
	}
	res.Correct = true

	// Outcomes are counted on the first unit of each input. A repeat of
	// an input has been checked above to reproduce that unit's outputs,
	// refusals and host errors included, so counting it again would only
	// weigh the input by how many repeats the time budget allowed; this
	// way a seed's attempted and failed counts are the same on every run.
	var ok, attempted, met int64
	var crits, means, p99s []float64
	for i, u := range d.units {
		if first[u.input] != i {
			continue
		}
		ok += u.ok
		attempted += u.attempted
		met += u.sloMet
		crits = append(crits, float64(u.critNS))
		means = append(means, meanNS(u.virtNS))
		p99s = append(p99s, float64(exactQuantile(u.virtNS, 0.99)))
	}
	res.Attempted, res.Failed = attempted, attempted-ok
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d units in %.1fs, setups %.3fs, GOMAXPROCS %d, %s\n",
		w.name, opt.seed, len(d.units), body, setupS, runtime.GOMAXPROCS(0), runtime.Version())

	if opt.trace {
		if tr.profErr != nil {
			return res, d, fmt.Errorf("cpu profile: %w", tr.profErr)
		}
		vals := b.layers(tr, untraced)
		for k, v := range tr.cpuShares() {
			vals[k] = v
		}
		if d.untracedRate > 0 {
			vals["trace.overhead_frac"] = 1 - d.tracedRate/d.untracedRate
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		if opt.spanOut != "" {
			if err := tr.writeSpans(opt.spanOut); err != nil {
				return res, d, err
			}
		}
		return res, d, nil
	}

	// Virtual latencies are taken per input and the median reported:
	// agg-lossy's per-query critical path is heavy-tailed (one frame
	// dropped k times in a row backs off 2^k times), so a slowest-of-all
	// figure would measure luck.
	if sloMax == 0 && median(crits) > 0 {
		// Part III: correct token contributions per virtual second of
		// critical path — the rate the fan-in sustains.
		sloMax = float64(ok) / (median(crits) * float64(len(crits)) / 1e9)
	}
	vals := map[string]float64{
		"setup_s":       median(setupS),
		"ok_ops_per_s":  median(rates),
		"cpu_us_per_op": median(cpus),
		"heap_peak_mib": median(heaps),
		"ok_frac":       float64(ok) / float64(attempted),
		"virt_crit_s":   median(crits) / 1e9,
		"virt_mean_ms":  median(means) / 1e6,
		"virt_p99_ms":   median(p99s) / 1e6,
		"slo_met_frac":  float64(met) / float64(attempted),
		"slo_max_rps":   sloMax,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return res, d, nil
}

// metricDef names one reported metric and its unit; the tables below
// are the ones BENCHMARK.json lists.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_ops_per_s", "ops/s"},
	{"cpu_us_per_op", "us"},
	{"heap_peak_mib", "MiB"},
	{"ok_frac", "share"},
	{"virt_crit_s", "s"},
	{"virt_mean_ms", "ms"},
	{"virt_p99_ms", "ms"},
	{"slo_met_frac", "share"},
	{"slo_max_rps", "req/s"},
}

// cpuModules are the layers CPU profile samples are credited to.
var cpuModules = []string{
	"gquery", "privcrypto", "netsim", "transport", "ssi", "obs", "tenant", "acl",
	"durable", "kv", "search", "embdb", "logstore", "flash", "mcu", "runtime_gc", "other",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"gquery.self_ms", "ms"},
		{"gquery.allocs_per_token", "count"},
		{"gquery.alloc_kib_per_token", "KiB"},
		{"fold.tree_depth", "count"},
		{"fold.tree_nodes", "count"},
		{"ssi.chunks", "count"},
		{"wire.self_ms", "ms"},
		{"wire.msgs_per_token", "count"},
		{"wire.bytes_per_token", "bytes"},
		{"arq.retransmits_per_msg", "count"},
		{"arq.acks_per_msg", "count"},
		{"arq.backoff_virt_s", "s"},
		{"transport.self_ms", "ms"},
		{"transport.rtt_us_p50", "us"},
		{"transport.rtt_us_p99", "us"},
		{"ssi.receive_ms", "ms"},
		{"ssi.partition_ms", "ms"},
		{"host.do_us_p50", "us"},
		{"host.do_us_p99", "us"},
		{"host.do_us_p99.resident", "us"},
		{"host.do_us_p99.reopen", "us"},
		{"host.queue_virt_ms_p99", "ms"},
		{"host.service_virt_ms_p99", "ms"},
		{"host.shed_frac", "share"},
		{"host.internal_errors", "count"},
		{"host.failed_tenants", "count"},
		{"tenant.reopens_per_kop", "count"},
		{"tenant.evictions_per_kop", "count"},
		{"flash.recovery_reads_per_reopen", "count"},
		{"flash.reads_per_op", "count"},
		{"flash.writes_per_op", "count"},
		{"flash.erases_per_op", "count"},
		{"acl.decisions_per_op", "count"},
		{"window.samples", "count"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu_share." + m, "share"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "share"})
}()
