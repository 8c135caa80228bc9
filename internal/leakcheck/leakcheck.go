// Package leakcheck is the repository's goroutine-leak assertion for tests.
// It is exact where a goroutine count is not: instead of allowing some
// slack over a baseline count, it fails on any live goroutine running (or
// created by) code of this module that was not alive at the baseline.
// Runtime and net/http housekeeping — keep-alive connection loops, timer
// goroutines — carry no frame of this module and never count, however many
// of them a test leaves idle.
package leakcheck

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Baseline is the set of goroutines, by ID, that already ran module code
// when it was taken.
type Baseline map[uint64]bool

// Take records the goroutines that run module code right now.
func Take() Baseline {
	base := Baseline{}
	for _, g := range moduleGoroutines() {
		base[g.id] = true
	}
	return base
}

// Check waits up to timeout for every goroutine that runs module code and
// is not in base to exit, and fails tb with their stacks if some do not.
// The calling goroutine is never counted.
func Check(tb testing.TB, base Baseline, timeout time.Duration) {
	tb.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var leaked []string
		for _, g := range moduleGoroutines() {
			if !base[g.id] {
				leaked = append(leaked, g.stack)
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			tb.Errorf("%d goroutine(s) running module code outlived the test:\n\n%s",
				len(leaked), strings.Join(leaked, "\n\n"))
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type goroutine struct {
	id    uint64
	stack string
}

// moduleGoroutines parses a full goroutine dump and returns every goroutine
// other than the caller's whose stack holds a function of this module
// ("blackdp" or "blackdp/..."), including the "created by" frame.
func moduleGoroutines() []goroutine {
	self, _ := header(stack(false))
	var out []goroutine
	for _, block := range strings.Split(string(stack(true)), "\n\n") {
		id, ok := header([]byte(block))
		if !ok || id == self {
			continue
		}
		for _, line := range strings.Split(block, "\n")[1:] {
			if strings.HasPrefix(line, "\t") {
				continue // file:line
			}
			fn := strings.TrimPrefix(line, "created by ")
			if strings.HasPrefix(fn, "blackdp/") || strings.HasPrefix(fn, "blackdp.") {
				out = append(out, goroutine{id: id, stack: block})
				break
			}
		}
	}
	return out
}

// stack returns runtime.Stack output, growing the buffer until it fits.
func stack(all bool) []byte {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, all)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// header parses the ID from a "goroutine <id> [<state>]:" first line.
func header(block []byte) (uint64, bool) {
	rest, ok := bytes.CutPrefix(block, []byte("goroutine "))
	if !ok {
		return 0, false
	}
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return 0, false
	}
	id, err := strconv.ParseUint(string(rest[:sp]), 10, 64)
	return id, err == nil
}
