package main

// Host-time attribution: a CPU profile of the traced run, decoded here
// (the standard library writes pprof's protobuf but ships no reader)
// and grouped by the repro/internal package each sample's time went to.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the host-time groups, named after the internal/ packages
// the event loop walks through plus the set-up packages; runtime is Go
// GC and allocation, other is everything else (driver, root package,
// the remaining internal packages).
var layers = []string{
	"sim", "ht", "nb", "cpu", "msg", "serve", "core",
	"firmware", "kernel", "topology", "prof", "runtime", "other",
}

const internalPrefix = "repro/internal/"

// allocOrGC reports whether a runtime function is allocation or garbage
// collection work, which is charged to the runtime layer even when a
// simulator package called it.
func allocOrGC(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	name := strings.TrimPrefix(fn, "runtime.")
	for _, p := range []string{"malloc", "newobject", "growslice", "makeslice", "makemap",
		"gc", "GC", "bgsweep", "bgscavenge", "sweep", "markroot", "scanobject", "greyobject"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// layerOf charges one sample, given its stack from the leaf outward, to
// a layer: the first frame that is allocation/GC work or belongs to a
// known package decides. Other runtime helpers (memmove, map lookups,
// channel operations) are charged to their caller's layer.
func layerOf(stack []string) string {
	sawRuntime := false
	for _, fn := range stack {
		if allocOrGC(fn) {
			return "runtime"
		}
		if strings.HasPrefix(fn, internalPrefix) {
			pkg := strings.TrimPrefix(fn, internalPrefix)
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range layers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro.") {
			return "other"
		}
		if strings.HasPrefix(fn, "runtime.") {
			sawRuntime = true
		}
	}
	if sawRuntime {
		return "runtime"
	}
	return "other"
}

// driverPhase labels the benchmark driver's own bookkeeping between
// reps; layerShares leaves those samples out.
const driverPhase = "driver"

// layerShares decodes CPU profiles and returns each layer's share of
// the samples in percent (all layers present, summing to 100 when
// there are samples) and the sample count.
func layerShares(profiles ...[]byte) (map[string]float64, int64, error) {
	counts := map[string]int64{}
	var total int64
	for _, raw := range profiles {
		samples, err := decodeProfile(raw)
		if err != nil {
			return nil, 0, err
		}
		for _, s := range samples {
			if s.phase == driverPhase {
				continue
			}
			counts[layerOf(s.stack)] += s.count
			total += s.count
		}
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = 100 * float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total, nil
}

// profSample is one decoded stack with its sample count.
type profSample struct {
	stack []string // function names, leaf first
	phase string   // the "phase" pprof label, if any
	count int64
}

// decodeProfile reads a gzipped pprof profile.proto: samples (field 2)
// with their labels, locations (4), functions (5) and the string table
// (6).
func decodeProfile(raw []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs     []uint64
		values   []uint64
		labelKey []uint64 // string indexes of label keys
		labelStr []uint64 // and of their string values
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					s.values = appendPacked(s.values, w, v, b)
				case 3:
					var key, str uint64
					err := eachField(b, func(f, w int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = v
						case 2:
							str = v
						}
						return nil
					})
					s.labelKey = append(s.labelKey, key)
					s.labelStr = append(s.labelStr, str)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{count: int64(s.values[0])}
		for i, k := range s.labelKey {
			if k < uint64(len(strs)) && strs[k] == "phase" && s.labelStr[i] < uint64(len(strs)) {
				ps.phase = strs[s.labelStr[i]]
			}
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendPacked adds a repeated varint field that may be packed (wire
// type 2) or not (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with the field
// number, wire type, and the varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
