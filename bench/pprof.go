package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets of the cpu.* shares: the repository modules on
// the run path, then allocation and GC work, the rest of the Go runtime, and
// everything else (standard library, protocol codecs, the benchmark itself).
var cpuLayers = []string{
	"netsim", "ids", "packet", "surveil", "censor", "tcpsim", "core", "lab",
	"population", "campaign", "archival", "gc_alloc", "runtime_other", "other",
}

// gcAllocPrefixes classify a runtime leaf function as allocation or garbage
// collection work.
var gcAllocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.gc", "runtime.(*gc", "runtime.scan",
	"runtime.greyobject", "runtime.findObject", "runtime.markroot", "runtime.markBits",
	"runtime.(*mspan)", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*pageAlloc)", "runtime.(*pallocBits)", "runtime.(*pageCache)",
	"runtime.sweepone", "runtime.bgsweep", "runtime.(*sweepLocked)", "runtime.(*sweepLocker)",
	"runtime.bgscavenge", "runtime.(*scavenger", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.typePointers", "runtime.(*typePointers)", "runtime.heapBits", "runtime.heapSetType",
	"runtime.(*gcBits)", "runtime.nextFreeFast", "runtime.memclrNoHeapPointers",
	"runtime.spanOf", "runtime.(*spanSet)", "runtime.deductAssistCredit", "runtime.(*fixalloc)",
	"runtime.(*mSpanList)", "runtime.(*mSpanStateBox)", "runtime.roundupsize",
}

// cpuLayer buckets a profile leaf function by the package it belongs to.
// Compiler-generated equality functions count toward their type's package;
// assembly stubs without a package path (aeshashbody, memeqbody) and the
// runtime's internal packages (such as the map implementation) count as
// runtime.
func cpuLayer(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	if !strings.Contains(fn, ".") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime_other"
	}
	if rest, ok := strings.CutPrefix(fn, "safemeasure/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") {
		for _, p := range gcAllocPrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc_alloc"
			}
		}
		return "runtime_other"
	}
	return "other"
}

// cpuShares returns each layer's share of a CPU profile's samples, by the
// layer of each sample's leaf function (the innermost inlined frame).
func cpuShares(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		fn := ""
		if loc := p.locations[s.locs[0]]; len(loc) > 0 {
			fn = p.functions[loc[0]]
		}
		counts[cpuLayer(fn)] += s.values[0]
		total += s.values[0]
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = ratio(float64(counts[l]), float64(total))
	}
	return out, nil
}

// profile is the part of a pprof protobuf profile cpuShares needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, leaf first
	functions map[uint64]string   // function id -> name
}

type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes a gzipped pprof profile (profile.proto): samples,
// locations with their lines, functions, and the string table.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	err = eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcName {
		if si < uint64(len(strs)) {
			p.functions[id] = strs[si]
		}
	}
	return p, nil
}

// appendUints appends a repeated integer field that arrived either unpacked
// (one varint v, b nil) or packed (b holds consecutive varints).
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("bench: malformed profile protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value (b nil) or its length-delimited bytes.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
		default:
			return errProto
		}
	}
	return nil
}
