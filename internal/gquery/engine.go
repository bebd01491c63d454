package gquery

import (
	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/privcrypto"
	tnet "pds/internal/transport"
)

// Engine is the option-based execution surface of the Part III protocol
// family, replacing the Run*/Run*Cfg twin sprawl:
//
//	res, stats, err := gquery.New(
//		gquery.WithWorkers(8),
//		gquery.WithFaults(&plan),
//		gquery.WithObserver(reg),
//	).SecureAgg(wire, srv, parts, kr, chunkSize)
//
// An Engine is immutable after New and safe to reuse across runs; each run
// still gets its own observability epoch.
type Engine struct {
	cfg RunConfig
}

// Option configures an Engine.
type Option func(*RunConfig)

// New builds an engine. With no options it is the paper-faithful serial
// schedule (one token at a time, clean wire).
func New(opts ...Option) *Engine {
	cfg := Serial()
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Engine{cfg: cfg}
}

// WithWorkers bounds the simulated token fleet: 0 means every core,
// 1 (the default) is the serial paper baseline.
func WithWorkers(n int) Option {
	return func(c *RunConfig) { c.Workers = n }
}

// WithFaults arms the netsim fault plane with the seeded schedule and
// routes every protocol leg over reliable ARQ links.
func WithFaults(plan *netsim.FaultPlan) Option {
	return func(c *RunConfig) { c.Faults = plan }
}

// WithRetries bounds retransmissions per frame under WithFaults;
// <= 0 selects netsim.DefaultMaxRetries.
func WithRetries(n int) Option {
	return func(c *RunConfig) { c.MaxRetries = n }
}

// WithTopology selects the fan-in structure of the aggregation plane:
// Flat() (the default) or Tree(arity). Results are identical across
// topologies; the critical path is not — that is the point.
func WithTopology(t Topology) Option {
	return func(c *RunConfig) { c.Topology = t }
}

// WithObserver merges every run's metrics and spans into reg at the end of
// the run — the hook pdsbench uses to collect one snapshot across a whole
// experiment.
func WithObserver(reg *obs.Registry) Option {
	return func(c *RunConfig) { c.observer = reg }
}

// WithConfig adopts a legacy RunConfig wholesale (bridge for callers still
// holding one).
func WithConfig(cfg RunConfig) Option {
	return func(c *RunConfig) {
		observer := c.observer
		*c = cfg
		if c.observer == nil {
			c.observer = observer
		}
	}
}

// Config returns the engine's resolved configuration.
func (e *Engine) Config() RunConfig { return e.cfg }

// SecureAgg runs the secure-aggregation protocol (non-deterministic
// encryption, blind partitioning, worker-token aggregation) over any
// transport substrate — the in-process simulator or the TCP wire.
func (e *Engine) SecureAgg(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring,
	chunkSize int) (Result, RunStats, error) {
	return runSecureAgg(w, srv, parts, kr, chunkSize, e.cfg)
}

// Noise runs the noise-based protocol (deterministic grouping attribute +
// fake tuples).
func (e *Engine) Noise(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring,
	domain []string, noisePerTuple float64, kind NoiseKind, seed int64) (Result, RunStats, error) {
	return runNoise(w, srv, parts, kr, domain, noisePerTuple, kind, seed, e.cfg)
}

// Histogram runs the histogram-based protocol (equi-depth buckets).
func (e *Engine) Histogram(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring,
	buckets []Bucket) (BucketResult, RunStats, error) {
	return runHistogram(w, srv, parts, kr, buckets, e.cfg)
}

// PaillierAgg runs the additively homomorphic protocol (the SSI aggregates
// ciphertexts itself; only per-group sums visit the decryption token).
func (e *Engine) PaillierAgg(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring,
	pk *privcrypto.PaillierPublicKey, sk *privcrypto.PaillierPrivateKey) (Result, RunStats, error) {
	return runPaillierAgg(w, srv, parts, kr, pk, sk, e.cfg)
}
