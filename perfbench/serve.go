package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"pds/internal/acl"
	"pds/internal/flash"
	"pds/internal/obs"
	"pds/internal/tenant"
	"pds/internal/workload"
)

// sloTargetNS is the host's default SLO latency target
// (tenant.SLOConfig's 16.384 ms) and sloBudget its default error
// budget, the share of requests that may miss it.
const (
	sloTargetNS = 1000 << 14
	sloBudget   = 0.01
)

// serveSchedules is how many independent schedules (seeds derived from
// the run's seed) a serve run replays, one per unit in turn. The virtual
// metrics pool one pass of each: a single schedule's p99 moves by up to
// ~15% with its seed, because a few queueing bursts make the tail.
const serveSchedules = 4

// serveBench replays open-loop schedules against a fresh host per unit,
// issuing Host.Do per arrival from one goroutine with the telemetry
// plane bound — the calls tenant.ServeObserved makes — but counting a
// host error as a failed op and carrying on where Serve would abort.
type serveBench struct {
	sz        sizes
	names     []string             // tenant names, by index
	cfgs      []tenant.ServeConfig // one per schedule
	schedules [][]workload.Arrival
	next      int // schedule of the next unit

	reg  *obs.Registry
	host *tenant.Host
	tel  *tenant.Telemetry

	// first pass of each schedule, checked against tenant.Serve
	passes []*servePass
	// traced-unit reopen accounting: flash reads inside Do calls that
	// reopened a tenant, and how many reopens those calls made
	reopenReads, reopens int64
}

// servePass is one unit's outcome.
type servePass struct {
	digest       string
	internal     int
	firstErrAt   int64
	firstErr     error
	failedTenant map[string]bool
}

func setupServe(sz sizes, seed int64) (bench, error) {
	b := &serveBench{sz: sz, passes: make([]*servePass, serveSchedules)}
	for i := 0; i < sz.tenants; i++ {
		b.names = append(b.names, fmt.Sprintf("tenant-%04d", i)) // as tenant.Serve names them
	}
	for k := 0; k < serveSchedules; k++ {
		cfg := tenant.ServeConfig{
			Tenants: sz.tenants, RatePerSec: sz.rate, Arrivals: sz.arrivals,
			Seed: seed + int64(k)<<32, ZipfS: sz.zipf,
		}
		if cfg.Seed == 0 {
			cfg.Seed = 1 // tenant.ServeConfig's default: Serve would run seed 1
		}
		arrivals, err := schedule(cfg)
		if err != nil {
			return nil, err
		}
		b.cfgs = append(b.cfgs, cfg)
		b.schedules = append(b.schedules, arrivals)
	}
	if err := b.prepare(); err != nil {
		return nil, err
	}
	// Warm-up pass: lazy initialisation lands in set-up.
	if _, err := b.unit(nil); err != nil {
		return nil, err
	}
	return b, nil
}

// schedule draws the open-loop arrivals tenant.Serve would issue for
// cfg.
func schedule(cfg tenant.ServeConfig) ([]workload.Arrival, error) {
	deny := cfg.DenyFrac
	if deny == 0 {
		deny = 0.02 // tenant.ServeConfig's default
	}
	gen, err := workload.NewOpenLoop(workload.OpenLoopConfig{
		Tenants: cfg.Tenants, RatePerSec: cfg.RatePerSec, Arrivals: cfg.Arrivals,
		Seed: cfg.Seed, ZipfS: cfg.ZipfS, DenyFrac: deny,
	})
	if err != nil {
		return nil, err
	}
	out := make([]workload.Arrival, 0, cfg.Arrivals)
	for {
		a, ok := gen.Next()
		if !ok {
			return out, nil
		}
		out = append(out, a)
	}
}

func (b *serveBench) prepare() error {
	b.reg = obs.NewRegistry()
	b.tel = tenant.NewTelemetry(b.cfgs[b.next], b.reg)
	b.host = tenant.NewHost(b.cfgs[b.next].Host, b.reg)
	b.tel.BindHost(b.host)
	return nil
}

func (b *serveBench) unit(tr *tracer) (unitOut, error) {
	k := b.next
	b.next = (k + 1) % serveSchedules
	u, pass, err := b.replay(b.schedules[k], tr)
	if err != nil {
		return u, err
	}
	u.input = k
	if b.passes[k] == nil {
		b.passes[k] = pass
	}
	return u, nil
}

// replay serves arrivals on the prepared host and checks the outputs:
// a forbidden purpose must be denied and nothing else may be, every
// arrival must cross the guard, and resident RAM must stay within the
// arena.
func (b *serveBench) replay(arrivals []workload.Arrival, tr *tracer) (unitOut, *servePass, error) {
	h, reg := b.host, b.reg
	var u unitOut
	pass := &servePass{failedTenant: map[string]bool{}}
	var shed int64
	var queue, service []int64
	for _, a := range arrivals {
		name := b.names[a.Tenant]
		req := tenant.Request{
			Tenant: name, Class: tenant.ClassOf(a.Tenant), AtNS: a.AtNS,
			Subject: name, Role: "owner", Purpose: a.Purpose,
		}
		var s span
		var reopens0, reads0 int64
		if tr != nil {
			reopens0 = reg.CounterValue(tenant.MetricReopens)
			reads0 = reg.CounterValue(flash.MetricPageReads)
			s = tr.open("host.resident", 0)
		}
		resp, err := h.Do(req)
		if tr != nil {
			if d := reg.CounterValue(tenant.MetricReopens) - reopens0; d > 0 {
				s.Layer = "host.reopen"
				b.reopens += d
				b.reopenReads += reg.CounterValue(flash.MetricPageReads) - reads0
			}
			tr.close(s)
		}
		b.tel.Window.Advance(h.NowNS())
		u.attempted++
		if resp.EndNS > u.critNS {
			u.critNS = resp.EndNS
		}
		forbidden := a.Purpose == workload.PurposeDenied
		switch {
		case err == nil:
			if forbidden {
				return u, nil, incorrect("arrival at %dns: forbidden purpose served", a.AtNS)
			}
			u.ok++
			u.virtNS = append(u.virtNS, resp.LatencyNS)
			queue = append(queue, resp.QueueNS)
			service = append(service, resp.ServiceNS)
			if resp.LatencyNS <= sloTargetNS {
				u.sloMet++
			}
		case errors.Is(err, tenant.ErrDenied):
			if !forbidden {
				return u, nil, incorrect("arrival at %dns: owner's serve request denied", a.AtNS)
			}
			u.ok++
			u.sloMet++
		case errors.Is(err, tenant.ErrShed):
			shed++
		case errors.Is(err, tenant.ErrQuota):
		default:
			if pass.internal == 0 {
				pass.firstErrAt, pass.firstErr = a.AtNS, err
			}
			pass.internal++
			pass.failedTenant[name] = true
		}
	}
	end := u.critNS
	if h.NowNS() > end {
		end = h.NowNS()
	}
	b.tel.Window.SampleNow(end)

	n := int64(len(arrivals))
	decisions := reg.CounterValue(acl.MetricDecisions, "allowed", "true") +
		reg.CounterValue(acl.MetricDecisions, "allowed", "false")
	if decisions != n {
		return u, nil, incorrect("acl decisions %d != arrivals %d: unguarded request path", decisions, n)
	}
	if hw, budget := h.Arena().HighWater(), h.Arena().Budget(); hw > budget {
		return u, nil, incorrect("resident RAM high-water %d over arena budget %d", hw, budget)
	}
	pass.digest = h.Digest()
	lat := sha256.New()
	for _, v := range u.virtNS {
		lat.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
	u.fingerprint = fmt.Sprintf("decisions=%s latencies=%s ok=%d met=%d shed=%d internal=%d windows=%d",
		pass.digest, hex.EncodeToString(lat.Sum(nil)), u.ok, u.sloMet, shed, pass.internal, b.tel.Window.Samples())
	perOp := func(family string) float64 { return float64(reg.CounterValue(family)) / float64(n) }
	u.counts = map[string]float64{
		"host.queue_virt_ms_p99":   float64(exactQuantile(queue, 0.99)) / 1e6,
		"host.service_virt_ms_p99": float64(exactQuantile(service, 0.99)) / 1e6,
		"host.shed_frac":           float64(shed) / float64(n),
		"host.internal_errors":     float64(pass.internal),
		"host.failed_tenants":      float64(len(pass.failedTenant)),
		"tenant.reopens_per_kop":   1000 * perOp(tenant.MetricReopens),
		"tenant.evictions_per_kop": 1000 * perOp(tenant.MetricEvictions),
		"flash.reads_per_op":       perOp(flash.MetricPageReads),
		"flash.writes_per_op":      perOp(flash.MetricPageWrites),
		"flash.erases_per_op":      perOp(flash.MetricBlockErases),
		"acl.decisions_per_op":     float64(decisions) / float64(n),
		"window.samples":           float64(b.tel.Window.Samples()),
	}
	return u, pass, nil
}

// verify checks each schedule's first pass against tenant.Serve on the
// same config: where Serve completes, the decision digests must match;
// where it aborts, it must abort on the first host error the pass
// counted. Then it runs the rate ladder for slo_max_rps.
func (b *serveBench) verify() (float64, error) {
	for k, p := range b.passes {
		if p == nil {
			continue
		}
		rep, err := tenant.Serve(b.cfgs[k], nil)
		switch {
		case err == nil && p.internal > 0:
			return 0, incorrect("tenant.Serve completed but the replay hit %d host errors", p.internal)
		case err == nil && rep.DecisionDigest != p.digest:
			return 0, incorrect("decision digest %s != tenant.Serve's %s", p.digest, rep.DecisionDigest)
		case err != nil && p.internal == 0:
			return 0, fmt.Errorf("tenant.Serve failed where the replay did not: %w", err)
		case err != nil:
			want := fmt.Sprintf("arrival at %dns: %v", p.firstErrAt, p.firstErr)
			if !strings.Contains(err.Error(), want) {
				return 0, incorrect("tenant.Serve aborted with %q, replay's first host error was %q", err, want)
			}
		}
	}
	return b.maxRate()
}

// maxRate finds slo_max_rps: the highest rate of the ladder, climbing
// from the lowest, before the first rung whose load-caused misses
// exceed the budget. Misses at the lowest rung are service-time tails
// (a search-class reorganisation alone can outlast the target), not
// load, so a rung's load-caused misses are its met share's drop below
// the lowest rung's. Each rung replays every schedule's seed afresh,
// sz.ladderArrivals arrivals at the rung's rate, and pools them.
func (b *serveBench) maxRate() (float64, error) {
	var floor, best float64
	for i, rate := range ladder {
		var met, attempted int64
		for _, cfg := range b.cfgs {
			cfg.RatePerSec = rate
			cfg.Arrivals = b.sz.ladderArrivals
			arrivals, err := schedule(cfg)
			if err != nil {
				return 0, err
			}
			b.prepare()
			u, _, err := b.replay(arrivals, nil)
			if err != nil {
				return 0, err
			}
			met += u.sloMet
			attempted += u.attempted
		}
		share := float64(met) / float64(attempted)
		if i == 0 {
			floor = share
		}
		if floor-share > sloBudget {
			break
		}
		best = rate
	}
	if best == 0 || best == ladder[len(ladder)-1] {
		return 0, fmt.Errorf("slo ladder %v req/s does not bracket the knee (best %v)", ladder, best)
	}
	return best, nil
}

func (b *serveBench) layers(tr *tracer, units []unitOut) map[string]float64 {
	out := meanCounts(units)
	res, reo := tr.selfNS["host.resident"], tr.selfNS["host.reopen"]
	all := append(append([]int64(nil), res...), reo...)
	out["host.do_us_p50"] = float64(exactQuantile(all, 0.50)) / 1e3
	out["host.do_us_p99"] = float64(exactQuantile(all, 0.99)) / 1e3
	out["host.do_us_p99.resident"] = float64(exactQuantile(res, 0.99)) / 1e3
	out["host.do_us_p99.reopen"] = float64(exactQuantile(reo, 0.99)) / 1e3
	if b.reopens > 0 {
		out["flash.recovery_reads_per_reopen"] = float64(b.reopenReads) / float64(b.reopens)
	}
	return out
}

func (b *serveBench) close() {}
