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

// A minimal decoder of the pprof profile format (a gzipped protocol
// buffer, see github.com/google/pprof/proto/profile.proto): just the
// fields needed to attribute CPU samples to the repository's packages.

// profile is the decoded subset of a pprof profile.
type profile struct {
	sampleTypes []string // "type/unit" per sample value
	samples     []profSample
	locations   map[uint64][]string // location ID -> function names, innermost first
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// pbField is one decoded protobuf field: a varint or a length-delimited
// payload (fixed-width fields are skipped; profile.proto uses none).
type pbField struct {
	num    int
	varint uint64
	bytes  []byte
	isLen  bool
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.bytes, f.isLen, b = b[n:n+int(l)], true, b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// uints decodes a repeated integer field, packed or not, appending to dst.
func (f pbField) uints(dst []uint64) ([]uint64, error) {
	if !f.isLen {
		return append(dst, f.varint), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseProfile decodes a pprof profile, gzipped or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	fields, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		valueTyps [][2]uint64
		funcs     = map[uint64]uint64{} // function ID -> name string index
		locFuncs  = map[uint64][]uint64{}
		p         = &profile{locations: map[uint64][]string{}}
	)
	for _, f := range fields {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.bytes))
		case fProfileSampleType:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var vt [2]uint64
			for _, g := range sub {
				switch g.num {
				case fValueTypeType:
					vt[0] = g.varint
				case fValueTypeUnit:
					vt[1] = g.varint
				}
			}
			valueTyps = append(valueTyps, vt)
		case fProfileSample:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, g := range sub {
				switch g.num {
				case fSampleLocation:
					if s.locs, err = g.uints(s.locs); err != nil {
						return nil, err
					}
				case fSampleValue:
					var vs []uint64
					if vs, err = g.uints(nil); err != nil {
						return nil, err
					}
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case fLocationID:
					id = g.varint
				case fLocationLine:
					line, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == fLineFunction {
							fns = append(fns, h.varint)
						}
					}
				}
			}
			locFuncs[id] = fns
		case fProfileFunction:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case fFunctionID:
					id = g.varint
				case fFunctionName:
					name = g.varint
				}
			}
			funcs[id] = name
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, vt := range valueTyps {
		p.sampleTypes = append(p.sampleTypes, str(vt[0])+"/"+str(vt[1]))
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, fn := range fns {
			names[i] = str(funcs[fn])
		}
		p.locations[id] = names
	}
	return p, nil
}

// repoPrefix is the import-path prefix of the repository's layer packages.
const repoPrefix = "blackdp/internal/"

// frameModule maps a function name to its layer: the package directly under
// blackdp/internal, or "" for any other function.
func frameModule(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute splits a CPU profile's time across layers. A sample belongs to
// the innermost blackdp/internal/<module> frame on its stack, so standard
// library work (crypto/*, encoding, allocation and GC assists) is charged
// to the layer that called it. Samples with no such frame go to "runtime"
// when every frame is the runtime's own (background GC mark and sweep,
// scavenger, scheduler) and to "other" otherwise (net/http plumbing, the
// benchmark itself). The shares sum to 1.
func attribute(p *profile) (map[string]float64, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if strings.HasPrefix(t, "cpu/") {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile: no cpu sample type in %v", p.sampleTypes)
	}
	totals := map[string]float64{}
	var sum float64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := float64(s.values[vi])
		totals[sampleModule(p, s)] += v
		sum += v
	}
	if sum == 0 {
		return nil, errors.New("profile: no CPU samples")
	}
	for k := range totals {
		totals[k] /= sum
	}
	return totals, nil
}

func sampleModule(p *profile, s profSample) string {
	runtimeOnly := true
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if m := frameModule(fn); m != "" {
				return m
			}
			if !strings.HasPrefix(fn, "runtime.") {
				runtimeOnly = false
			}
		}
	}
	if runtimeOnly {
		return "runtime"
	}
	return "other"
}
