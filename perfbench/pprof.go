package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// moduleSamples credits each sample of a runtime/pprof CPU profile to a
// module: the innermost frame under pds/internal/<module> on its stack
// (so standard-library crypto counts to the package calling it),
// runtime_gc for garbage-collector work, and "other" for the rest. It
// returns sample counts per module and the total.
//
// The profile is a gzipped protocol buffer; only the fields needed here
// are decoded: samples (location ids, values), locations (line function
// ids, innermost inlined call first), functions (name) and strings.
func moduleSamples(gz []byte) (map[string]int64, int64, error) {
	if len(gz) == 0 {
		return map[string]int64{}, 0, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0]) // samples/count comes first
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	out := map[string]int64{}
	var total int64
	for _, s := range samples {
		var frames []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out[creditModule(frames)] += s.count
		total += s.count
	}
	return out, total, nil
}

// gcFrames mark garbage-collector work anywhere on a stack.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot"}

// creditModule picks the module a stack (innermost frame first) counts
// to.
func creditModule(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime_gc"
			}
		}
	}
	const prefix = "pds/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, prefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return "other"
}

// appendPacked appends a repeated varint field, packed (b non-nil) or
// not.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// eachField walks one protocol-buffer message, calling fn with each
// field's number and either its varint value or its length-delimited
// bytes (nil for varints).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}
