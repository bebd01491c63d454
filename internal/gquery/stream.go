package gquery

import (
	"fmt"
	"strconv"
	"sync"

	"pds/internal/netsim"
	tnet "pds/internal/transport"
)

// ParticipantSource yields participants one at a time — the streaming
// counterpart of a []Participant. Sources let a run visit a fleet far
// larger than memory: the engine never holds more than the in-flight
// window of chunks, regardless of how many participants Next produces.
type ParticipantSource interface {
	// Next returns the next participant, or ok=false when the fleet is
	// exhausted. Next is called from a single goroutine.
	Next() (Participant, bool)
}

type sliceSource struct {
	parts []Participant
	i     int
}

// SliceSource adapts an in-memory participant slice to ParticipantSource.
func SliceSource(parts []Participant) ParticipantSource {
	return &sliceSource{parts: parts}
}

func (s *sliceSource) Next() (Participant, bool) {
	if s.i >= len(s.parts) {
		return Participant{}, false
	}
	p := s.parts[s.i]
	s.i++
	return p, true
}

// SecureAggStream runs the secure-aggregation protocol over a participant
// stream with bounded memory: uploads flow through the SSI's streaming
// partition mode, each filled chunk is dispatched to a fold token as soon
// as it exists, and the fold plane takes each partial in as it arrives —
// the same plane, topology for topology, as the batch run. At no point
// does the engine materialize the fleet's tuple set; the number of
// filled-but-unfolded chunks is bounded by twice the token fleet plus
// two.
//
// The integrity contract is unchanged — the run returns the exact result
// or a typed DetectionError — but the fault plane is not supported:
// streaming overlaps collection with folding, and the fault plane's
// phase-barrier semantics (delayed envelopes surfacing at barriers)
// need the phases to be sequential. A config with Faults set is
// rejected.
func (e *Engine) SecureAggStream(w tnet.Transport, srv StreamInfra, src ParticipantSource,
	kr *Keyring, chunkSize int) (Result, RunStats, error) {
	return runSecureAggStream(w, srv, src, kr, chunkSize, e.cfg)
}

// streamLeaf is one chunk travelling through the fold plane: envs on
// the way to a worker, out on the way back.
type streamLeaf struct {
	idx  int
	envs []netsim.Envelope
	out  chunkOutcome
}

func runSecureAggStream(w tnet.Transport, srv StreamInfra, src ParticipantSource,
	kr *Keyring, chunkSize int, cfg RunConfig) (Result, RunStats, error) {

	var stats RunStats
	if src == nil {
		return nil, stats, fmt.Errorf("gquery: streaming run needs a participant source")
	}
	if chunkSize < 1 {
		return nil, stats, ErrBadChunkSize
	}
	if cfg.Faults != nil {
		return nil, stats, fmt.Errorf("gquery: streaming fold plane requires a clean wire (Faults must be nil)")
	}
	tp := newTransport(w, cfg, "secure-agg-stream")
	defer tp.close()

	// Token fleet: a bounded worker pool drains chunks as the SSI emits
	// them. The jobs buffer is the memory bound — once 2·workers+2 chunks
	// are filled but unfolded, the collector blocks.
	workers := cfg.workers(1 << 30)
	window := 2*workers + 2
	jobs := make(chan streamLeaf, window)
	results := make(chan streamLeaf, window)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				job.out = tp.runFold(kr,
					foldJob{worker: "tok@L0." + strconv.Itoa(job.idx), kind: "chunk", label: strconv.Itoa(job.idx)},
					job.envs, tupleProcessor(kr, nil, byGroup))
				job.envs = nil // folded: release the chunk's envelopes
				results <- job
			}
		}()
	}

	// The fold plane consumes leaves in chunk-index order (reordering the
	// pool's completions) so merging and tree placement are deterministic.
	plane := newFoldPlane(tp, kr, cfg.Topology, &stats)
	planeDone := make(chan struct{})
	go func() {
		defer close(planeDone)
		pending := map[int]chunkOutcome{}
		next := 0
		for r := range results {
			pending[r.idx] = r.out
			for {
				out, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				plane.leaf(out)
				next++
			}
		}
	}()
	drain := func() {
		close(jobs)
		wg.Wait()
		close(results)
		<-planeDone
	}

	// Collection: stream participants through the SSI; every filled chunk
	// is handed straight to the token fleet. The checksum accumulates
	// incrementally — the querier never needs the participant list.
	nChunks := 0
	if err := srv.StartStream(chunkSize, func(chunk []netsim.Envelope) {
		jobs <- streamLeaf{idx: nChunks, envs: chunk}
		nChunks++
	}); err != nil {
		drain()
		return nil, stats, err
	}
	col := &collector{tp: tp, srv: srv}
	participants := 0
	var collectErr error
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		participants++
		if collectErr = col.uploadTuples(kr, p.ID, pdsTuples(p), nil); collectErr != nil {
			break
		}
	}
	srv.FinishStream()
	drain()

	if collectErr != nil {
		return nil, stats, collectErr
	}
	if participants == 0 {
		return nil, stats, ErrNoParticipants
	}
	stats.Chunks = nChunks

	// The streaming SSI routed chunks inline, so the partition phase is a
	// zero-width boundary after collection; the fold plane lays out the
	// fold phase.
	tp.phasePar(PhasePartition, col.makespan)
	tp.phasePar(PhaseTokenFold, 0)
	partials, err := plane.finish()
	if err != nil {
		return nil, stats, err
	}
	res, detected := mergePartials(partials, col.wantID, col.wantCount)
	if detected {
		stats.Detected = true
	}
	tp.finish(&stats)
	if stats.Detected {
		return res, stats, detectionError("secure-agg", stats)
	}
	return res, stats, nil
}
