package tenant

import (
	"sync"

	"pds/internal/obs"
)

// SLO burn-rate tracking (DESIGN §14): each class has an error budget —
// the fraction of requests allowed to be "bad" (shed, or slower than
// the latency target). The tracker rides the telemetry window's sample
// hook, computes each class's bad fraction over the window interval,
// and expresses it as a burn rate: budget consumption speed relative to
// plan, ×1000. Burn 1000 means exactly on budget; 4000 means the class
// exhausts a month's budget in a week. Crossing AlertBurnMilli fires a
// typed obs alert.
const (
	// MetricBurn is the per-class burn-rate gauge (×1000).
	MetricBurn = "tenant_burn_milli"
	// AlertSLOBurn is the alert family fired on budget overrun.
	AlertSLOBurn = "slo_burn"
)

// SLOConfig parameterizes the per-class error budget. The zero value is
// usable: every field defaults below.
type SLOConfig struct {
	// LatencyTargetNS is the "fast enough" threshold (default ~16.4ms —
	// a MetricLatency bucket bound, so the over-target count is exact).
	LatencyTargetNS int64
	// BudgetMilli is the error budget as a fraction ×1000 (default 10,
	// i.e. 1% of requests may be bad).
	BudgetMilli int64
	// AlertBurnMilli is the burn rate ×1000 at or above which the class
	// alerts (default 4000 — burning budget 4× faster than plan).
	AlertBurnMilli int64
	// MinWindowTotal suppresses burn math on windows with fewer requests
	// than this (default 20) — one bad request out of two is not a
	// statement about the SLO.
	MinWindowTotal int64
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.LatencyTargetNS <= 0 {
		c.LatencyTargetNS = 1000 << 14 // 16.384ms, a LatencyBounds bound
	}
	if c.BudgetMilli <= 0 {
		c.BudgetMilli = 10
	}
	if c.AlertBurnMilli <= 0 {
		c.AlertBurnMilli = 4000
	}
	if c.MinWindowTotal <= 0 {
		c.MinWindowTotal = 20
	}
	return c
}

// ClassBurn is one class's budget state over the latest window.
type ClassBurn struct {
	Class string `json:"class"`
	// Total/Bad are the window's request count and bad-request count
	// (sheds + over-latency-target completions).
	Total int64 `json:"total"`
	Bad   int64 `json:"bad"`
	// BurnMilli is the burn rate ×1000 (bad fraction / budget).
	BurnMilli int64 `json:"burn_milli"`
	// Alerts counts how many windows have fired for this class so far.
	Alerts int64 `json:"alerts"`
}

// BurnTracker computes per-class burn rates from window samples. Wire
// it with Attach; reads are safe concurrently with sampling.
type BurnTracker struct {
	cfg SLOConfig
	reg *obs.Registry

	mu    sync.Mutex
	burns [NumClasses]ClassBurn
}

// NewBurnTracker builds a tracker updating gauges and alerts in reg.
// Its per-class burn gauges are registered at zero here, so a scrape
// taken before the first arrival already sees a non-empty exposition.
func NewBurnTracker(cfg SLOConfig, reg *obs.Registry) *BurnTracker {
	b := &BurnTracker{cfg: cfg.withDefaults(), reg: reg}
	for c := Class(0); c < NumClasses; c++ {
		b.burns[c].Class = c.String()
		reg.Gauge(MetricBurn, "class", c.String())
	}
	return b
}

// Attach registers the tracker on a window's sample hook.
func (b *BurnTracker) Attach(w *obs.Window) {
	w.OnSample(b.observe)
}

// Burns returns the latest per-class budget state.
func (b *BurnTracker) Burns() []ClassBurn {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]ClassBurn(nil), b.burns[:]...)
}

// observe runs once per window sample, on the sampling goroutine.
func (b *BurnTracker) observe(cur, prev *obs.WindowSample) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for c := Class(0); c < NumClasses; c++ {
		name := c.String()
		var total, shed int64
		for _, d := range []Decision{DecisionAdmit, DecisionQueued, DecisionShed} {
			key := obs.Name(MetricClassRequests, "class", name, "decision", d.String())
			delta := cur.Counter(key)
			if prev != nil {
				delta -= prev.Counter(key)
			}
			total += delta
			if d == DecisionShed {
				shed += delta
			}
		}
		slow := b.overTarget(cur, name)
		if prev != nil {
			slow -= b.overTarget(prev, name)
		}
		bad := shed + slow
		cb := &b.burns[c]
		cb.Total, cb.Bad = total, bad
		if total < b.cfg.MinWindowTotal {
			cb.BurnMilli = 0
			continue
		}
		cb.BurnMilli = bad * 1_000_000 / (total * b.cfg.BudgetMilli)
		b.reg.Gauge(MetricBurn, "class", name).Set(cb.BurnMilli)
		if cb.BurnMilli >= b.cfg.AlertBurnMilli {
			cb.Alerts++
			b.reg.Alert(cur.AtNS, cb.BurnMilli, AlertSLOBurn, "class", name)
		}
	}
}

// overTarget counts the sample's latency observations above the target.
// Exact when the target is a bucket bound (the default); otherwise an
// upper bound, since a straddling bucket counts entirely as slow.
func (b *BurnTracker) overTarget(s *obs.WindowSample, class string) int64 {
	h, ok := s.Histogram(obs.Name(MetricLatency, "class", class))
	if !ok {
		return 0
	}
	var n int64
	for _, bk := range h.Buckets {
		if bk.Overflow || bk.LE > b.cfg.LatencyTargetNS {
			n += bk.Count
		}
	}
	return n
}
