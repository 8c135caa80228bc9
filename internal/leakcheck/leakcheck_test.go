package leakcheck

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// recorder captures a failed Check instead of failing the test.
type recorder struct {
	testing.TB
	msg string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) { r.msg = fmt.Sprintf(format, args...) }

func park(stop chan struct{}) { <-stop }

// TestCheckCatchesModuleGoroutine: a goroutine parked in module code after
// the baseline is a leak, reported with its stack, until it exits.
func TestCheckCatchesModuleGoroutine(t *testing.T) {
	base := Take()
	stop := make(chan struct{})
	go park(stop)
	rec := &recorder{TB: t}
	Check(rec, base, 50*time.Millisecond)
	if !strings.Contains(rec.msg, "1 goroutine(s)") || !strings.Contains(rec.msg, "leakcheck.park") {
		t.Fatalf("parked goroutine not reported; message:\n%s", rec.msg)
	}
	close(stop)
	Check(t, base, 5*time.Second)
}

// TestCheckIgnoresIdleKeepAlives: the idle keep-alive goroutines a client
// and server leave behind run no module code, so they never count.
func TestCheckIgnoresIdleKeepAlives(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	base := Take()
	for range 3 {
		resp, err := (&http.Client{Transport: tr}).Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	Check(t, base, 5*time.Second)
}
