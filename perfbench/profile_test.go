package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// A tiny protobuf encoder, enough to build pprof fixtures.

func pbKey(b []byte, num int, wire uint64) []byte {
	return binary.AppendUvarint(b, uint64(num)<<3|wire)
}

func pbVarint(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(pbKey(b, num, 0), v)
}

func pbBytes(b []byte, num int, payload []byte) []byte {
	b = binary.AppendUvarint(pbKey(b, num, 2), uint64(len(payload)))
	return append(b, payload...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, num, p)
}

// fixtureProfile encodes a CPU profile with four stacks of known cost:
//
//	30ns crypto/ecdsa under blackdp/internal/pki  -> pki
//	50ns sim inlined into scenario (one location) -> sim
//	15ns background GC, runtime frames only      -> runtime
//	 5ns net/http with no repository frame        -> other
func fixtureProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"crypto/ecdsa.Sign",                          // 5
		"blackdp/internal/pki.(*Authority).Issue",    // 6
		"blackdp/internal/core.(*AuthorityAgent).Do", // 7
		"runtime.goexit",                             // 8
		"blackdp/internal/sim.(*Scheduler).Step",     // 9
		"blackdp/internal/scenario.(*World).runFor",  // 10
		"runtime.scanobject",                         // 11
		"runtime.gcBgMarkWorker",                     // 12
		"net/http.(*conn).serve",                     // 13
	}
	var p []byte
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m []byte
		m = pbVarint(m, fValueTypeType, vt[0])
		m = pbVarint(m, fValueTypeUnit, vt[1])
		p = pbBytes(p, fProfileSampleType, m)
	}
	// Function i names string i+4; location i holds function i, except
	// location 5, which holds the inlined pair sim (inner) + scenario.
	for fn := uint64(1); fn <= 9; fn++ {
		var m []byte
		m = pbVarint(m, fFunctionID, fn)
		m = pbVarint(m, fFunctionName, fn+4)
		p = pbBytes(p, fProfileFunction, m)
	}
	loc := func(id uint64, fns ...uint64) {
		var m []byte
		m = pbVarint(m, fLocationID, id)
		for _, fn := range fns {
			var line []byte
			line = pbVarint(line, fLineFunction, fn)
			m = pbBytes(m, fLocationLine, line)
		}
		p = pbBytes(p, fProfileLocation, m)
	}
	loc(1, 1)
	loc(2, 2)
	loc(3, 3)
	loc(4, 4)
	loc(5, 5, 6)
	loc(7, 7)
	loc(8, 8)
	loc(9, 9)
	sample := func(packed bool, cpu uint64, locs ...uint64) {
		var m []byte
		if packed {
			m = pbPacked(m, fSampleLocation, locs...)
		} else {
			for _, l := range locs {
				m = pbVarint(m, fSampleLocation, l)
			}
		}
		m = pbPacked(m, fSampleValue, 1, cpu)
		p = pbBytes(p, fProfileSample, m)
	}
	sample(true, 30, 1, 2, 3, 4)
	sample(false, 50, 5, 4)
	sample(true, 15, 7, 8, 4)
	sample(false, 5, 9, 4)
	for _, s := range strs {
		p = pbBytes(p, fProfileStrings, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeFixture(t *testing.T) {
	prof, err := parseProfile(fixtureProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) != 4 || prof.sampleTypes[1] != "cpu/nanoseconds" {
		t.Fatalf("decoded %d samples of %v", len(prof.samples), prof.sampleTypes)
	}
	shares, err := attribute(prof)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"pki": 0.30, "sim": 0.50, "runtime": 0.15, "other": 0.05}
	if len(shares) != len(want) {
		t.Errorf("shares %v, want %v", shares, want)
	}
	for m, w := range want {
		if math.Abs(shares[m]-w) > 1e-12 {
			t.Errorf("cpu_share.%s = %v, want %v", m, shares[m], w)
		}
	}
}

func TestFrameModule(t *testing.T) {
	for fn, want := range map[string]string{
		"blackdp/internal/radio.(*Medium).deliver":   "radio",
		"blackdp/internal/wire.AppendBinary":         "wire",
		"blackdp/internal/core.func1":                "core",
		"blackdp/internal/serve/sub.Thing":           "serve",
		"blackdp.Fig4":                               "",
		"blackdp/serve/client.(*Client).Submit":      "",
		"crypto/ecdsa.Sign":                          "",
		"vendor/blackdp/internal/radio.(*M).deliver": "",
	} {
		if got := frameModule(fn); got != want {
			t.Errorf("frameModule(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated profile accepted")
	}
	if _, err := attribute(&profile{sampleTypes: []string{"alloc/bytes"}}); err == nil {
		t.Error("profile without a cpu sample type accepted")
	}
}
