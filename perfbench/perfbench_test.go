package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"pds/internal/netsim"
)

// testSizes shrink every workload to test scale. serve-churn keeps the
// full population and enough arrivals to cross tenant-0001's
// flash-exhaustion point (about 28k arrivals at 4000 req/s), so its
// host errors show.
var testSizes = map[string]sizes{
	"agg-mix":   {tokens: 96, tuples: 2},
	"agg-lossy": {tokens: 96, tuples: 2},
	"fleet-tcp": {tokens: 96, tuples: 2},
	"serve-hot": {tenants: 20, arrivals: 3000, rate: 250, zipf: -1, ladderArrivals: 3000},
	"serve-churn": {tenants: 10000, arrivals: 32000, rate: 4000, zipf: 1.1,
		ladderArrivals: 4000},
}

func testOpts(trace bool) options {
	return options{seed: 7, seconds: 1e-9, trace: trace, setups: 1, minUnits: 2}
}

func runTest(t *testing.T, w workloadSpec, opt options) (result, runDetail) {
	t.Helper()
	res, d, err := run(w, testSizes[w.name], opt)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d", w.name, res.Correct, res.Attempted)
	}
	return res, d
}

// lossyRetransmitBand bounds agg-lossy's retransmits per message. The
// count is not exact from run to run: privcrypto.NonDetCipher draws
// fresh IVs from crypto/rand, and the fault plane decides drops by
// hashing the payload bytes (netsim.HashUniform), so which frames drop
// changes every run. That randomness is the protocol's security, so the
// benchmark lives with it and checks a band instead of a value.
var lossyRetransmitBand = [2]float64{0.05, 0.6}

// TestDeterministic runs every workload twice with one seed: virtual
// latencies, SLO figures and ok_frac must repeat exactly, and so must
// each unit's fingerprint — clean-wire message and byte counts, tree
// shape and critical path for Part III, the decision digest and latency
// stream for serve. agg-lossy's virtual time depends on its random IVs
// and is exempt; its retransmits must stay inside the documented band.
func TestDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, da := runTest(t, w, testOpts(false))
			b, db := runTest(t, w, testOpts(false))
			for _, k := range []string{"ok_frac", "virt_crit_s", "virt_mean_ms", "virt_p99_ms", "slo_met_frac", "slo_max_rps"} {
				if w.name == "agg-lossy" && k != "ok_frac" && k != "slo_met_frac" {
					continue
				}
				if a.Metrics[k] != b.Metrics[k] {
					t.Errorf("%s: %v then %v", k, a.Metrics[k], b.Metrics[k])
				}
			}
			if fa, fb := da.units[0].fingerprint, db.units[0].fingerprint; fa != fb {
				t.Errorf("fingerprint %q then %q", fa, fb)
			}
			if w.name == "agg-lossy" {
				for _, u := range append(da.units, db.units...) {
					r := u.counts["arq.retransmits_per_msg"]
					if r < lossyRetransmitBand[0] || r > lossyRetransmitBand[1] {
						t.Errorf("retransmits per message %.3f outside %v", r, lossyRetransmitBand)
					}
				}
			}
		})
	}
}

// TestServeChurnCountsHostErrors checks that serve-churn crosses the
// flash-exhaustion point, counts the host errors as failed ops and
// still serves its whole schedule.
func TestServeChurnCountsHostErrors(t *testing.T) {
	w, _ := workloadByName("serve-churn")
	res, d := runTest(t, w, testOpts(false))
	u := d.units[0]
	if u.attempted != int64(testSizes[w.name].arrivals) {
		t.Fatalf("attempted %d of %d arrivals", u.attempted, testSizes[w.name].arrivals)
	}
	if u.counts["host.internal_errors"] == 0 || res.Failed == 0 {
		t.Fatalf("no host errors: internal=%v failed=%d", u.counts["host.internal_errors"], res.Failed)
	}
	if f := res.Metrics["ok_frac"].Value; f <= 0 || f >= 1 {
		t.Fatalf("ok_frac %v", f)
	}
}

// TestOutcomeCountsIgnoreRepeats checks that a run's attempted and
// failed counts depend on its seed alone, not on how many units its
// time budget allowed: serve-hot at 4000 req/s sheds, and runs of four
// and of seven units (every schedule once, or some twice) must report
// the same counts.
func TestOutcomeCountsIgnoreRepeats(t *testing.T) {
	w, _ := workloadByName("serve-hot")
	sz := testSizes[w.name]
	sz.rate = 4000
	var got [2]result
	for i, units := range []int{serveSchedules, serveSchedules + 3} {
		opt := testOpts(false)
		opt.minUnits = units
		res, _, err := run(w, sz, opt)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = res
	}
	if got[0].Failed == 0 {
		t.Fatal("no failed ops at 4000 req/s: the check needs refusals")
	}
	if got[0].Attempted != got[1].Attempted || got[0].Failed != got[1].Failed {
		t.Errorf("%d units: %d of %d failed; %d units: %d of %d",
			serveSchedules, got[0].Failed, got[0].Attempted, serveSchedules+3, got[1].Failed, got[1].Attempted)
	}
}

// TestTracedMatchesUntraced runs every workload traced: the traced
// units' deterministic outputs must equal the untraced units' (run
// fails otherwise) and an untraced run's, and every per-layer metric
// must be reported.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tr, dt := runTest(t, w, testOpts(true))
			_, du := runTest(t, w, testOpts(false))
			if dt.units[0].fingerprint != du.units[0].fingerprint {
				t.Errorf("traced run %q, untraced run %q", dt.units[0].fingerprint, du.units[0].fingerprint)
			}
			if len(tr.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(tr.Metrics), len(perLayer))
			}
			if dt.tracedRate <= 0 || dt.untracedRate <= 0 {
				t.Errorf("trace overhead not measured: traced %v, untraced %v ops/s", dt.tracedRate, dt.untracedRate)
			}
			var shares float64
			for _, m := range cpuModules {
				shares += tr.Metrics["cpu_share."+m].Value
			}
			if shares != 0 && (shares < 0.999 || shares > 1.001) {
				t.Errorf("CPU shares sum to %v", shares)
			}
		})
	}
}

// sleepyWire is a transport whose ARQ backoff burns wall time.
type sleepyWire struct {
	*netsim.Network
	slept time.Duration
}

func (s *sleepyWire) Sleep(d time.Duration) { s.slept += d }

func TestTracedWireForwardsSleeper(t *testing.T) {
	inner := &sleepyWire{Network: netsim.New()}
	var w netsim.Wire = &tracedWire{Transport: inner, tr: newTracer(), layer: "wire"}
	s, ok := w.(netsim.Sleeper)
	if !ok {
		t.Fatal("traced wire hides netsim.Sleeper")
	}
	s.Sleep(3 * time.Millisecond)
	if inner.slept != 3*time.Millisecond {
		t.Fatalf("Sleep not forwarded: inner slept %v", inner.slept)
	}
	(&tracedWire{Transport: netsim.New(), tr: newTracer()}).Sleep(time.Hour) // simulator: no wall time
}

// TestWireDelayNamesWire slows the wire wrapper by a fixed stall: the
// per-layer breakdown must name the wire as the layer that grew, and
// agg-lossy's throughput must fall by more than its bound.
func TestWireDelayNamesWire(t *testing.T) {
	w, _ := workloadByName("agg-lossy")
	base, db := runTest(t, w, testOpts(true))
	opt := testOpts(true)
	opt.wireDelay = 200 * time.Microsecond
	slow, ds := runTest(t, w, opt)
	layers := []string{"gquery.self_ms", "wire.self_ms", "ssi.receive_ms", "ssi.partition_ms"}
	grew, most := "", 0.0
	for _, l := range layers {
		if g := slow.Metrics[l].Value - base.Metrics[l].Value; g > most {
			grew, most = l, g
		}
	}
	if grew != "wire.self_ms" {
		t.Errorf("largest self-time growth in %s (%.2f ms), want wire.self_ms", grew, most)
	}
	bound := bounds(t)["ok_ops_per_s"]
	if ds.tracedRate >= db.tracedRate*(1-bound) {
		t.Errorf("ok_ops_per_s %.0f -> %.0f: within the %.2f bound", db.tracedRate, ds.tracedRate, bound)
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func bounds(t *testing.T) map[string]float64 {
	out := map[string]float64{}
	for _, m := range readBenchmarkFile(t).EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program's
// tables in step.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, program has %s", got, want)
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: %v, program has %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

func TestCreditModule(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"crypto/aes.encryptBlock", "pds/internal/privcrypto.(*NonDetCipher).Encrypt", "pds/internal/gquery.runSecureAgg"}, "privcrypto"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"pds/internal/netsim.(*Network).Send.func1", "main.main"}, "netsim"},
		{[]string{"syscall.Syscall", "main.main"}, "other"},
	} {
		if got := creditModule(c.frames); got != c.want {
			t.Errorf("%v: %s, want %s", c.frames, got, c.want)
		}
	}
}
