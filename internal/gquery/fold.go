package gquery

import (
	"time"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
)

// collector uploads the fleet's tuples to the SSI — the collection
// phase every protocol shares. Every PDS is its own serial resource, so
// collection is charged at the slowest single PDS's upload, not the
// fleet's sum. The collector also accumulates the tuple-id checksum a
// complete, untampered run must reproduce: each PDS registers what it
// sent with the querier.
type collector struct {
	tp  *transport
	srv Infra

	makespan  time.Duration
	wantID    uint64
	wantCount int64
}

// upload sends one PDS's n payloads, built in order by payload(i).
func (c *collector) upload(pds string, n int, payload func(i int) ([]byte, error)) error {
	var up netsim.Stats
	for i := 0; i < n; i++ {
		p, err := payload(i)
		if err != nil {
			return err
		}
		up.Messages++
		up.Bytes += int64(len(p))
		if err := c.tp.send(netsim.Envelope{From: pds, To: c.srv.Dest(pds), Kind: "tuple", Payload: p}, c.srv.Receive); err != nil {
			return err
		}
	}
	if d := up.Time(c.tp.ro.cost); d > c.makespan {
		c.makespan = d
	}
	return nil
}

// uploadTuples sends one PDS's tuples, one sealed envelope each: the
// protocol's clear header for the SSI (nil for secure aggregation),
// then the tuple's non-deterministic ciphertext.
func (c *collector) uploadTuples(kr *Keyring, pds string, tuples []tuplePlain, header func(t tuplePlain) ([]byte, error)) error {
	return c.upload(pds, len(tuples), func(i int) ([]byte, error) {
		t := tuples[i]
		var hdr []byte
		if header != nil {
			var err error
			if hdr, err = header(t); err != nil {
				return nil, err
			}
		}
		ct, err := kr.NonDet.Encrypt(encodeTuplePlain(t))
		if err != nil {
			return nil, err
		}
		c.wantID += t.ID
		c.wantCount++
		if hdr != nil {
			ct = append(hdr, ct...)
		}
		return seal(kr, ct), nil
	})
}

// pdsTuples numbers a participant's tuples under its id sequence.
func pdsTuples(p Participant) []tuplePlain {
	ts := make([]tuplePlain, len(p.Tuples))
	for seq, t := range p.Tuples {
		ts[seq] = tuplePlain{ID: ssi.HashID(p.ID, seq), Group: t.Group, Value: t.Value}
	}
	return ts
}

// foldJob describes one token-fold work item: which worker token runs
// it, the wire kind of the SSI → token dispatch leg, and how the chunk
// is labeled in the trace.
type foldJob struct {
	worker string
	kind   string
	label  string
}

// envProcessor folds one delivered envelope into the outcome. It
// reports integrity failures through out.macFailures and hard decode
// errors through out.err; runFold stops the chunk on the latter.
type envProcessor func(out *chunkOutcome, e netsim.Envelope)

// runFold executes the per-token fold step every protocol and topology
// shares. The dispatch span is the "SSI partition message" handing the
// chunk to its worker, parented under the partition phase — or, in a
// streaming run, whose SSI partitions inline before that phase opens,
// under collection: every wire frame of the chunk carries its context,
// so the token's fold span attaches under it even across retransmits
// and duplicated deliveries.
// The outcome records the chunk's clean-model wire traffic, which the
// fold plane uses to place the leaf on its virtual timeline.
func (tp *transport) runFold(kr *Keyring, job foldJob, envs []netsim.Envelope, proc envProcessor) chunkOutcome {
	disp := tp.ro.span("ssi-dispatch", PhasePartition, "chunk", job.label, "worker", job.worker)
	defer disp.End()
	var fold *obs.Span
	defer func() { fold.End() }()
	out := chunkOutcome{worker: job.worker, partial: partialAgg{Aggs: map[string]GroupAgg{}}}
	for _, env := range envs {
		out.wire.Messages++
		out.wire.Bytes += int64(len(env.Payload))
		sendErr := tp.send(netsim.Envelope{From: "ssi", To: job.worker, Kind: job.kind, Payload: env.Payload, Ctx: disp.Context()},
			func(e netsim.Envelope) {
				if fold == nil {
					fold = tp.ro.remoteSpan(PhaseTokenFold, e.Ctx, "chunk", job.label, "worker", job.worker)
				}
				proc(&out, e)
			})
		if sendErr != nil && out.err == nil {
			out.err = sendErr
		}
		if out.err != nil {
			return out
		}
	}
	// Worker → SSI → fold plane: the partial rides sealed and
	// non-deterministically encrypted.
	payload, err := sealPartial(kr, out.partial)
	if err != nil {
		out.err = err
		return out
	}
	out.sealed = payload
	out.wire.Messages++
	out.wire.Bytes += int64(len(payload))
	if err := tp.send(netsim.Envelope{From: job.worker, To: "ssi", Kind: "partial", Payload: payload, Ctx: fold.Context()}, nil); err != nil && out.err == nil {
		out.err = err
	}
	return out
}

// sealPartial is a partial's wire form: encode, encrypt
// non-deterministically, MAC.
func sealPartial(kr *Keyring, p partialAgg) ([]byte, error) {
	pct, err := kr.NonDet.Encrypt(encodePartial(p))
	if err != nil {
		return nil, err
	}
	return seal(kr, pct), nil
}

// openSealed verifies a sealed payload, skips the clear header of
// hdr(body) bytes (nil: none) and decrypts the rest; ok=false is an
// integrity failure (SSI tampering), while a decode error of the
// plaintext aborts the run.
func openSealed(kr *Keyring, payload []byte, hdr func(body []byte) int) ([]byte, bool) {
	body, err := open(kr, payload)
	if err != nil {
		return nil, false
	}
	if hdr != nil {
		n := hdr(body)
		if n > len(body) {
			return nil, false
		}
		body = body[n:]
	}
	pt, err := kr.NonDet.Decrypt(body)
	return pt, err == nil
}

// tupleProcessor folds one tuple envelope: open it behind the
// protocol's clear header and accumulate it under key(t) — fakes
// contribute to the checksum only.
func tupleProcessor(kr *Keyring, hdr func(body []byte) int, key func(t tuplePlain) string) envProcessor {
	return func(out *chunkOutcome, e netsim.Envelope) {
		pt, ok := openSealed(kr, e.Payload, hdr)
		if !ok {
			out.macFailures++
			return
		}
		t, err := decodeTuplePlain(pt)
		if err != nil {
			out.err = err
			return
		}
		out.partial.IDSum += t.ID
		out.partial.Count++
		if !t.Fake {
			k := key(t)
			out.partial.Aggs[k] = out.partial.Aggs[k].Fold(t.Value)
		}
	}
}

// byGroup keys a tuple under its own group.
func byGroup(t tuplePlain) string { return t.Group }
