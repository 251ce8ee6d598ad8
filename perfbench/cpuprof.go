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

// A CPU profile from runtime/pprof is a gzipped profile.proto message. The
// decoder below reads only what the CPU shares need: each sample's stack
// (location ids → inlined lines → function names) and its CPU time.

// cpuGroups names the layers the traced run reports CPU shares for. A sample
// counts toward a group when any frame of its stack matches, so shares are
// inclusive and may overlap (the LSTM cell's share contains the exp/tanh it
// calls).
var cpuGroups = []struct {
	name  string
	match func(fn string) bool
}{
	{"arena", func(fn string) bool {
		return fn == "ovs/internal/tensor.(*Arena).get" || fn == "ovs/internal/tensor.(*Arena).Put" ||
			fn == "ovs/internal/tensor.(*Tensor).reinit"
	}},
	{"transcendental", func(fn string) bool {
		switch fn {
		case "math.Exp", "math.exp", "math.archExp", "math.expmulti", "math.Tanh", "math.tanh":
			return true
		}
		return false
	}},
	{"gemm", func(fn string) bool {
		switch fn {
		case "ovs/internal/tensor.OuterAccFMA", "ovs/internal/tensor.MatVecNTAcc", "ovs/internal/tensor.VecMatTo":
			return true
		}
		return strings.HasPrefix(fn, "ovs/internal/tensor.gemm")
	}},
	{"lstmcell", func(fn string) bool {
		return strings.HasPrefix(fn, "ovs/internal/autodiff.") && strings.Contains(strings.ToLower(fn), "lstmcell")
	}},
	{"sim", func(fn string) bool { return strings.HasPrefix(fn, "ovs/internal/sim.") }},
	{"roadnet", func(fn string) bool { return strings.HasPrefix(fn, "ovs/internal/roadnet.") }},
	{"gc", func(fn string) bool {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcDrainN",
			"runtime.markroot", "runtime.scanobject", "runtime.bgsweep", "runtime.sweepone",
			"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination":
			return true
		}
		return false
	}},
	{"sched", func(fn string) bool {
		switch fn {
		case "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goschedImpl",
			"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.runqgrab", "runtime.stealWork",
			"runtime.notewakeup", "runtime.notesleep", "runtime.newproc", "runtime.goexit0":
			return true
		}
		return false
	}},
}

// cpuShares accumulates CPU time per group across one or more profiles.
type cpuShares struct {
	total float64
	group map[string]float64
}

func newCPUShares() *cpuShares { return &cpuShares{group: make(map[string]float64)} }

// share returns the fraction of profiled CPU time spent in group name.
func (c *cpuShares) share(name string) float64 { return ratio(c.group[name], c.total) }

// add decodes one gzipped CPU profile and adds its samples.
func (c *cpuShares) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		v := s.values[len(s.values)-1] // CPU profiles carry [count, nanoseconds]
		hit := make([]bool, len(cpuGroups))
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				fn := p.strings[p.funcName[fid]]
				for g, grp := range cpuGroups {
					hit[g] = hit[g] || grp.match(fn)
				}
			}
		}
		c.total += float64(v)
		for g, h := range hit {
			if h {
				c.group[cpuGroups[g].name] += float64(v)
			}
		}
	}
	return nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

// Field numbers of profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocField   = 1
	sampleValueField = 2

	locIDField   = 1
	locLineField = 4
	lineFuncID   = 1

	funcIDField   = 1
	funcNameField = 2
)

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case profSampleField:
			var s profSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case sampleLocField:
					return appendVarints(&s.locs, w, v, b)
				case sampleValueField:
					var vs []uint64
					if err := appendVarints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.values) == 0 {
				return errors.New("sample without values")
			}
			p.samples = append(p.samples, s)
		case profLocationField:
			var id uint64
			var funcs []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case locIDField:
					id = v
				case locLineField:
					return walkFields(b, func(f, w int, v uint64, b []byte) error {
						if f == lineFuncID {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case profFunctionField:
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case funcIDField:
					id = v
				case funcNameField:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case profStringField:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.strings) == 0 {
		return nil, errors.New("empty string table")
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside string table of %d", idx, len(p.strings))
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// walkFields calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, b the payload of a length-delimited field.
func walkFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("truncated fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("truncated fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
