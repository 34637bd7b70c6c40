package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuByModule reads a runtime/pprof CPU profile and returns the CPU time of
// each module in nanoseconds, plus the total. Each sample goes to the
// innermost frame of a sedna/internal/<module> package; a sample with no
// such frame goes to "bench" when the benchmark's own code is on its stack
// and to "runtime" otherwise.
func cpuByModule(profile []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	// Module of each function, then of each location's innermost frame.
	funcModule := map[uint64]string{}
	for id, nameIdx := range p.funcName {
		if nameIdx < uint64(len(p.strings)) {
			funcModule[id] = moduleOf(p.strings[nameIdx])
		}
	}
	out := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		ns := s.values[len(s.values)-1] // [samples/count, cpu/nanoseconds]
		total += ns
		mod := "runtime"
	frames:
		for _, loc := range s.locs {
			// A location's lines run from the innermost inlined call out.
			for _, fn := range p.locFuncs[loc] {
				switch m := funcModule[fn]; m {
				case "", "runtime":
				case "bench":
					mod = "bench"
				default:
					mod = m
					break frames
				}
			}
		}
		out[mod] += ns
	}
	return out, total, nil
}

// moduleOf maps a function name to its sedna/internal module, "bench" for
// the benchmark's main package, and "runtime" for anything else.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "sedna/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return "runtime"
}

// profile holds the parts of a pprof protobuf the attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64
	funcName map[uint64]uint64
	strings  []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the profile.proto fields used here: sample (2),
// location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id, name uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
