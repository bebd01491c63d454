package gquery

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"pds/internal/netsim"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// NoiseKind selects how fake tuples are drawn in the noise-based protocol.
type NoiseKind int

// Noise strategies from [TNP14].
const (
	// NoNoise sends only true tuples: the SSI observes the exact group
	// frequency distribution (maximum leakage, minimum cost).
	NoNoise NoiseKind = iota
	// WhiteNoise draws fake groups uniformly from the whole domain.
	WhiteNoise
	// ControlledNoise draws fake groups from the complementary domain —
	// groups the participant does NOT hold — which flattens the observed
	// distribution faster per fake tuple.
	ControlledNoise
)

func (k NoiseKind) String() string {
	switch k {
	case NoNoise:
		return "none"
	case WhiteNoise:
		return "white"
	case ControlledNoise:
		return "controlled"
	default:
		return fmt.Sprintf("NoiseKind(%d)", int(k))
	}
}

// runNoise executes the noise-based protocol (deterministic encryption +
// fake tuples): the grouping attribute travels under deterministic
// encryption so the SSI groups equal values itself — no worker tokens are
// needed for partitioning — while each group's measure ciphertexts go to a
// token that discards fakes and aggregates. noisePerTuple fakes are
// injected per true tuple (fractional values are rounded stochastically).
// Results are exact; leakage is the noised frequency histogram. The
// per-group token aggregation fans out over cfg.Workers concurrent
// tokens; groups are scheduled in sorted deterministic order and partials
// folded in that order, so results match the serial run.
func runNoise(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring,
	domain []string, noisePerTuple float64, kind NoiseKind, seed int64, cfg RunConfig) (Result, RunStats, error) {

	var stats RunStats
	if len(parts) == 0 {
		return nil, stats, ErrNoParticipants
	}
	if kind != NoNoise && len(domain) == 0 {
		return nil, stats, fmt.Errorf("gquery: noise needs a public domain")
	}
	rng := rand.New(rand.NewSource(seed))
	tp := newTransport(w, cfg, "noise")
	defer tp.close()

	// Collection: true tuples first, then fakes, under one id sequence.
	// The clear header is the deterministic group ciphertext.
	col := &collector{tp: tp, srv: srv}
	header := func(t tuplePlain) ([]byte, error) {
		gct, err := kr.Det.Encrypt([]byte(t.Group))
		if err != nil {
			return nil, err
		}
		hdr := binary.LittleEndian.AppendUint16(make([]byte, 0, 2+len(gct)), uint16(len(gct)))
		return append(hdr, gct...), nil
	}
	for _, p := range parts {
		tuples := pdsTuples(p)
		if kind != NoNoise {
			held := map[string]bool{}
			for _, t := range p.Tuples {
				held[t.Group] = true
			}
			nf := int(noisePerTuple * float64(len(p.Tuples)))
			if rng.Float64() < noisePerTuple*float64(len(p.Tuples))-float64(nf) {
				nf++
			}
			for f := 0; f < nf; f++ {
				g, ok := drawFakeGroup(rng, domain, held, kind)
				if !ok {
					break // domain exhausted for controlled noise
				}
				tuples = append(tuples, tuplePlain{ID: ssi.HashID(p.ID, len(tuples)), Group: g, Fake: true})
				stats.FakeTuples++
			}
		}
		if err := col.uploadTuples(kr, p.ID, tuples, header); err != nil {
			return nil, stats, err
		}
	}

	// Phase barrier: delayed uploads surface before grouping.
	tp.barrier(srv.Receive)
	tp.phasePar(PhasePartition, col.makespan)
	srv.BindTrace(tp.ro.curCtx())

	// The SSI groups by equal deterministic ciphertext — its whole
	// advantage, and its whole leakage.
	chunks, err := srv.Partition(1 << 30) // one logical batch
	if err != nil {
		return nil, stats, err
	}
	groups := map[string][]netsim.Envelope{}
	var forged []netsim.Envelope
	for _, chunk := range chunks {
		for _, env := range chunk {
			gct, ok := splitNoisePayload(env.Payload)
			if !ok {
				// Malformed: route to a token anyway; it will flag it.
				forged = append(forged, env)
				continue
			}
			srv.ObserveGroup(gct)
			groups[string(gct)] = append(groups[string(gct)], env)
		}
	}
	stats.Chunks = len(groups)
	tp.phase(PhaseTokenFold)

	// Aggregation: one token call per observed group, fanned out over the
	// fleet. Schedule groups in sorted order so worker assignment and
	// partial folding are deterministic regardless of pool size.
	// Malformed envelopes ride last, in a batch of their own that a token
	// flags like any other.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	batches := make([][]netsim.Envelope, len(keys), len(keys)+1)
	labels := make([]string, len(keys), len(keys)+1)
	for i, k := range keys {
		batches[i], labels[i] = groups[k], strconv.Itoa(i)
	}
	if len(forged) > 0 {
		batches, labels = append(batches, forged), append(labels, "forged")
	}
	// Skip past the deterministic group ciphertext to the tuple.
	proc := tupleProcessor(kr, func(body []byte) int { return 2 + int(binary.LittleEndian.Uint16(body[:2])) }, byGroup)
	outs := make([]chunkOutcome, len(batches))
	cfg.forEachChunk(len(batches), func(i int) {
		outs[i] = tp.runFold(kr,
			foldJob{worker: parts[i%len(parts)].ID, kind: "group-chunk", label: labels[i]},
			batches[i], proc)
	})

	// Merge + integrity check.
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
		return res, stats, detectionError("noise", stats)
	}
	return res, stats, nil
}

// splitNoisePayload extracts the deterministic group ciphertext from a
// sealed noise-protocol payload without verifying it (that is all the SSI
// can do: it has no keys).
func splitNoisePayload(payload []byte) ([]byte, bool) {
	if len(payload) < 2+2+32 {
		return nil, false
	}
	// sealed: u16 ctLen | body | mac — body: u16 gctLen | gct | vct.
	n := int(binary.LittleEndian.Uint16(payload[:2]))
	if len(payload) != 2+n+32 || n < 2 {
		return nil, false
	}
	body := payload[2 : 2+n]
	gl := int(binary.LittleEndian.Uint16(body[:2]))
	if 2+gl > len(body) {
		return nil, false
	}
	return body[2 : 2+gl], true
}

// drawFakeGroup picks a fake group per the noise kind.
func drawFakeGroup(rng *rand.Rand, domain []string, held map[string]bool, kind NoiseKind) (string, bool) {
	if kind == WhiteNoise {
		return domain[rng.Intn(len(domain))], true
	}
	// Controlled: from the complement of the participant's groups.
	var comp []string
	for _, g := range domain {
		if !held[g] {
			comp = append(comp, g)
		}
	}
	if len(comp) == 0 {
		return "", false
	}
	return comp[rng.Intn(len(comp))], true
}
