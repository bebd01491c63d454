package gquery

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"sort"

	"pds/internal/netsim"
	"pds/internal/privcrypto"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// RunPaillierAgg is the homomorphic variant of the protocol family: the
// grouping attribute travels under deterministic encryption (as in the
// noise protocol) while the measure travels under Paillier. The SSI then
// aggregates each group ENTIRELY BY ITSELF — multiplying ciphertexts is
// adding plaintexts — and only the final per-group sums visit a token
// holding the private key for decryption and integrity checking.
//
// Compared with SecureAgg this trades worker-token round-trips for
// public-key computation, and leaks the group frequency histogram (same
// channel as the no-noise deterministic protocol). COUNT and SUM are
// exact; MIN/MAX cannot be computed under purely additive homomorphism,
// so the result's Min/Max fields are zero — the structural limitation the
// tutorial's "the difficult part will often be the aggregate part" remark
// points at.
//
// Detection: every upload carries a MACed tuple id; the SSI must return
// the id list with each group so the final token can verify the checksum.
//
// The token side is a single final decryption call, so Workers has nothing
// to fan out; the config contributes the fault plane, the reliable links
// and the observer. Paillier ciphertexts ride the wire at the key's fixed
// width (pk.CipherLen), keeping byte-level accounting deterministic.
//
// RunConfig.Topology does not apply here: the SSI folds ciphertexts
// itself, so there is no token fold plane to arrange into a tree.
func runPaillierAgg(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring,
	pk *privcrypto.PaillierPublicKey, sk *privcrypto.PaillierPrivateKey, cfg RunConfig) (Result, RunStats, error) {

	var stats RunStats
	if len(parts) == 0 {
		return nil, stats, ErrNoParticipants
	}
	if pk == nil || sk == nil {
		return nil, stats, fmt.Errorf("gquery: paillier protocol needs a key pair")
	}
	tp := newTransport(w, cfg, "paillier")
	defer tp.close()

	// Collection: payload = u16 gctLen | gct | u16 idBlobLen | idBlob | vct
	// where idBlob = (u64 id | mac32) and vct is the Paillier ciphertext.
	cipherLen := pk.CipherLen()
	col := &collector{tp: tp, srv: srv}
	for _, p := range parts {
		err := col.upload(p.ID, len(p.Tuples), func(seq int) ([]byte, error) {
			t := p.Tuples[seq]
			if t.Value < 0 {
				return nil, fmt.Errorf("gquery: paillier protocol needs non-negative values, got %d", t.Value)
			}
			gct, err := kr.Det.Encrypt([]byte(t.Group))
			if err != nil {
				return nil, err
			}
			id := ssi.HashID(p.ID, seq)
			var idb [8]byte
			binary.LittleEndian.PutUint64(idb[:], id)
			idBlob := append(idb[:], privcrypto.MAC(kr.MACKey, idb[:])...)
			vct, err := pk.EncryptInt64(t.Value, nil)
			if err != nil {
				return nil, err
			}
			payload := make([]byte, 0, 4+len(gct)+len(idBlob)+cipherLen)
			var b2 [2]byte
			binary.LittleEndian.PutUint16(b2[:], uint16(len(gct)))
			payload = append(payload, b2[:]...)
			payload = append(payload, gct...)
			binary.LittleEndian.PutUint16(b2[:], uint16(len(idBlob)))
			payload = append(payload, b2[:]...)
			payload = append(payload, idBlob...)
			off := len(payload)
			payload = payload[:off+cipherLen]
			vct.FillBytes(payload[off:])
			return payload, nil
		})
		if err != nil {
			return nil, stats, err
		}
	}
	// Phase barrier: delayed uploads surface before grouping.
	tp.barrier(srv.Receive)
	tp.phasePar(PhasePartition, col.makespan)
	srv.BindTrace(tp.ro.curCtx())

	// The SSI groups by det ciphertext and aggregates homomorphically.
	chunks, err := srv.Partition(1 << 30)
	if err != nil {
		return nil, stats, err
	}
	type groupAcc struct {
		cipher *big.Int
		count  int64
		ids    [][]byte // id blobs passed through for the token's check
	}
	groups := map[string]*groupAcc{}
	for _, chunk := range chunks {
		for _, env := range chunk {
			gct, idBlob, vbytes, ok := splitPaillierPayload(env.Payload)
			if !ok {
				// Malformed envelope: pass to the token as an empty
				// group with a bogus id so the checksum trips.
				stats.Detected = true
				stats.MACFailures++
				continue
			}
			srv.ObserveGroup(gct)
			acc := groups[string(gct)]
			if acc == nil {
				acc = &groupAcc{cipher: big.NewInt(1)} // multiplicative identity mod N²
				groups[string(gct)] = acc
			}
			acc.cipher = pk.AddCipher(acc.cipher, new(big.Int).SetBytes(vbytes))
			acc.count++
			acc.ids = append(acc.ids, idBlob)
		}
	}
	stats.Chunks = len(groups)
	tp.phase(PhaseMerge)

	// Final token: decrypt per-group sums, verify every id MAC and the
	// global checksum. Groups visit the token in sorted key order so the
	// wire schedule does not depend on map iteration.
	keys := make([]string, 0, len(groups))
	for gct := range groups {
		keys = append(keys, gct)
	}
	sort.Strings(keys)
	res := Result{}
	var idSum uint64
	var count int64
	for _, gct := range keys {
		acc := groups[gct]
		// One message models the SSI → token hand-over per group.
		homPayload := make([]byte, cipherLen)
		acc.cipher.FillBytes(homPayload)
		if err := tp.send(netsim.Envelope{From: "ssi", To: parts[0].ID, Kind: "hom-group", Payload: homPayload},
			nil); err != nil {
			return nil, stats, err
		}
		groupName, err := kr.Det.Decrypt([]byte(gct))
		if err != nil {
			stats.MACFailures++
			stats.Detected = true
			continue
		}
		sum, err := sk.Decrypt(acc.cipher)
		if err != nil {
			stats.Detected = true
			continue
		}
		for _, blob := range acc.ids {
			if len(blob) != 8+32 || !privcrypto.VerifyMAC(kr.MACKey, blob[:8], blob[8:]) {
				stats.MACFailures++
				stats.Detected = true
				continue
			}
			idSum += binary.LittleEndian.Uint64(blob[:8])
			count++
		}
		res[string(groupName)] = GroupAgg{Sum: sum.Int64(), Count: acc.count}
	}
	stats.WorkerCalls = 1 // only the final decryption token

	tp.barrier(nil)
	wantID, wantCount := expectedChecksum(parts)
	if idSum != wantID || count != wantCount {
		stats.Detected = true
	}
	tp.finish(&stats)
	if stats.Detected {
		return res, stats, ErrDetected
	}
	return res, stats, nil
}

// splitPaillierPayload parses an upload of the homomorphic protocol.
func splitPaillierPayload(payload []byte) (gct, idBlob, vbytes []byte, ok bool) {
	if len(payload) < 4 {
		return nil, nil, nil, false
	}
	gl := int(binary.LittleEndian.Uint16(payload[:2]))
	if 2+gl+2 > len(payload) {
		return nil, nil, nil, false
	}
	gct = payload[2 : 2+gl]
	il := int(binary.LittleEndian.Uint16(payload[2+gl : 4+gl]))
	if 4+gl+il > len(payload) {
		return nil, nil, nil, false
	}
	idBlob = payload[4+gl : 4+gl+il]
	vbytes = payload[4+gl+il:]
	if len(vbytes) == 0 {
		return nil, nil, nil, false
	}
	return gct, idBlob, vbytes, true
}
