package gquery

import (
	"strconv"

	tnet "pds/internal/transport"
)

// runSecureAgg executes a GROUP BY aggregate with the secure-aggregation
// protocol (non-deterministic encryption):
//
//	collection : every PDS uploads Enc_nd(id|group|value) + MAC;
//	partition  : the SSI splits the blind ciphertext set into chunks;
//	aggregation: each chunk goes to a (participant) token that decrypts,
//	             partially aggregates, and returns a sealed partial;
//	merge      : a final token merges partials and verifies the tuple-id
//	             checksum, detecting drops, duplicates and forgeries.
//
// The SSI observes only ciphertexts: every payload is distinct, so no
// grouping information leaks. The aggregation phase runs over cfg.Workers
// concurrent tokens; partials are merged in chunk order, so Result and
// RunStats are identical to the serial run on the same inputs — and, the
// wire being pluggable, identical across substrates for the same seed.
func runSecureAgg(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring, chunkSize int, cfg RunConfig) (Result, RunStats, error) {
	var stats RunStats
	if len(parts) == 0 {
		return nil, stats, ErrNoParticipants
	}
	if chunkSize < 1 {
		return nil, stats, ErrBadChunkSize
	}
	tp := newTransport(w, cfg, "secure-agg")
	defer tp.close()

	// Collection phase.
	col := &collector{tp: tp, srv: srv}
	for _, p := range parts {
		if err := col.uploadTuples(kr, p.ID, pdsTuples(p), nil); err != nil {
			return nil, stats, err
		}
	}
	// Phase barrier: delayed uploads surface before partitioning.
	tp.barrier(srv.Receive)
	tp.phasePar(PhasePartition, col.makespan)
	srv.BindTrace(tp.ro.curCtx())

	// Partition phase (where a weakly-malicious SSI misbehaves).
	chunks, err := srv.Partition(chunkSize)
	if err != nil {
		return nil, stats, err
	}
	stats.Chunks = len(chunks)
	tp.phase(PhaseTokenFold)

	// Aggregation phase: the token fleet processes chunks independently
	// through the shared fold step (fold.go), and the fold plane merges
	// the partials (topology.go).
	outs := make([]chunkOutcome, len(chunks))
	cfg.forEachChunk(len(chunks), func(i int) {
		outs[i] = tp.runFold(kr,
			foldJob{worker: parts[i%len(parts)].ID, kind: "chunk", label: strconv.Itoa(i)},
			chunks[i], tupleProcessor(kr, nil, byGroup))
	})
	partials, err := tp.foldAll(kr, cfg.Topology, outs, &stats)
	if err != nil {
		return nil, stats, err
	}
	tp.barrier(nil)
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
