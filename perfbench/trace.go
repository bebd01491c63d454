package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pds/internal/gquery"
	"pds/internal/netsim"
	tnet "pds/internal/transport"
)

// span is one timed call into a layer, recorded from outside the
// program. Parent is 0 for a span whose caller is not itself a span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of the traced units in memory. At the end of
// each unit it folds them into per-layer self times (a span's duration
// minus its children's) and keeps the first unit's raw spans for
// writeSpans. It also runs a CPU profile over each traced unit.
type tracer struct {
	base time.Time
	// wireDelay is a fixed stall added inside every wire span — a
	// test-only slowdown of one layer.
	wireDelay time.Duration

	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	saved []span
	units int
	wall  time.Duration
	// covered is the wall time during which at least one top-level span
	// was open.
	covered time.Duration
	self    map[string]time.Duration
	// selfNS keeps every span's self time for layers read as
	// percentiles.
	selfNS map[string][]int64

	prof     bytes.Buffer
	profErr  error
	samples  map[string]int64
	nSamples int64
}

// percentileLayers are the layers whose span self times are kept whole.
var percentileLayers = map[string]bool{"transport": true, "host.resident": true, "host.reopen": true}

func newTracer() *tracer {
	return &tracer{
		base:    time.Now(),
		self:    map[string]time.Duration{},
		selfNS:  map[string][]int64{},
		samples: map[string]int64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// open starts a span; close records it.
func (t *tracer) open(layer string, parent int64) span {
	return span{ID: t.nextID.Add(1), Parent: parent, Layer: layer, Start: t.now()}
}

func (t *tracer) close(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin starts a traced unit.
func (t *tracer) begin() {
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil && t.profErr == nil {
		t.profErr = err
	}
}

// end closes a traced unit that took wall seconds: stop the profile,
// credit its samples, and fold the unit's spans into per-layer self
// times.
func (t *tracer) end(wall float64) {
	t.wall += time.Duration(wall * 1e9)
	pprof.StopCPUProfile()
	if by, n, err := moduleSamples(t.prof.Bytes()); err != nil {
		if t.profErr == nil {
			t.profErr = err
		}
	} else {
		for m, c := range by {
			t.samples[m] += c
		}
		t.nSamples += n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		self := s.End - s.Start - children[s.ID]
		t.self[s.Layer] += time.Duration(self)
		if percentileLayers[s.Layer] {
			t.selfNS[s.Layer] = append(t.selfNS[s.Layer], self)
		}
	}
	t.covered += time.Duration(covered(t.spans))
	if t.units == 0 {
		t.saved = t.spans
	}
	t.spans = nil
	t.units++
}

// selfMS is a layer's self time in ms per traced unit.
func (t *tracer) selfMS(layer string) float64 {
	if t.units == 0 {
		return 0
	}
	return float64(t.self[layer]) / 1e6 / float64(t.units)
}

// uncoveredMS is the traced units' wall time outside every top-level
// span, in ms per unit: the caller's own time.
func (t *tracer) uncoveredMS() float64 {
	if t.units == 0 {
		return 0
	}
	return float64(t.wall-t.covered) / 1e6 / float64(t.units)
}

// covered is the length of the union of the top-level spans' intervals:
// spans on concurrent goroutines overlap, so their durations' sum can
// exceed the wall time they cover.
func covered(spans []span) int64 {
	var top []span
	for _, s := range spans {
		if s.Parent == 0 {
			top = append(top, s)
		}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].Start < top[j].Start })
	var total, end int64
	for _, s := range top {
		if s.Start > end {
			end = s.Start
		}
		if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// cpuShares is each module's share of the traced units' CPU samples.
func (t *tracer) cpuShares() map[string]float64 {
	out := map[string]float64{}
	if t.nSamples == 0 {
		return out
	}
	known := map[string]bool{}
	for _, m := range cpuModules {
		known[m] = true
	}
	for m, c := range t.samples {
		if !known[m] {
			m = "other"
		}
		out["cpu_share."+m] += float64(c) / float64(t.nSamples)
	}
	return out
}

// writeSpans writes the first traced unit's spans as JSON, sorted by
// start.
func (t *tracer) writeSpans(path string) error {
	sort.Slice(t.saved, func(i, j int) bool { return t.saved[i].Start < t.saved[j].Start })
	b, err := json.Marshal(t.saved)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedWire wraps the transport a protocol engine is given: every
// Send, Deliver and FlushFaults is a span of the given layer, and every
// receive callback a child span, so the layer's self time excludes the
// receiver's work. It forwards netsim.Sleeper, which the ARQ layer
// type-asserts to decide whether backoff burns wall time.
type tracedWire struct {
	tnet.Transport
	tr    *tracer
	layer string
}

var _ netsim.Sleeper = (*tracedWire)(nil)

func (w *tracedWire) stall() {
	if w.tr.wireDelay > 0 {
		time.Sleep(w.tr.wireDelay)
	}
}

func (w *tracedWire) Send(e netsim.Envelope) netsim.Envelope {
	s := w.tr.open(w.layer, 0)
	w.stall()
	out := w.Transport.Send(e)
	w.tr.close(s)
	return out
}

func (w *tracedWire) child(parent int64, rcv func(netsim.Envelope)) func(netsim.Envelope) {
	return func(e netsim.Envelope) {
		c := w.tr.open(w.layer+".recv", parent)
		rcv(e)
		w.tr.close(c)
	}
}

func (w *tracedWire) Deliver(e netsim.Envelope, rcv func(netsim.Envelope)) {
	s := w.tr.open(w.layer, 0)
	w.stall()
	w.Transport.Deliver(e, w.child(s.ID, rcv))
	w.tr.close(s)
}

func (w *tracedWire) FlushFaults(rcv func(netsim.Envelope)) {
	s := w.tr.open(w.layer, 0)
	w.Transport.FlushFaults(w.child(s.ID, rcv))
	w.tr.close(s)
}

// Sleep forwards to the wrapped transport when it burns wall time on
// backoff, and like the in-process simulator does nothing otherwise.
func (w *tracedWire) Sleep(d time.Duration) {
	if s, ok := w.Transport.(netsim.Sleeper); ok {
		s.Sleep(d)
	}
}

// tracedInfra wraps the SSI so Receive and Partition are spans.
type tracedInfra struct {
	gquery.Infra
	tr *tracer
}

func (i *tracedInfra) Receive(e netsim.Envelope) {
	s := i.tr.open("ssi.receive", 0)
	i.Infra.Receive(e)
	i.tr.close(s)
}

func (i *tracedInfra) Partition(chunkSize int) ([][]netsim.Envelope, error) {
	s := i.tr.open("ssi.partition", 0)
	chunks, err := i.Infra.Partition(chunkSize)
	i.tr.close(s)
	return chunks, err
}
