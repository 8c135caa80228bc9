package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDisconnectDoesNotCancelJob: the POST response is only a tail of the
// job's stream, so a client that hangs up after the accepted line leaves
// the job running to completion, and its whole stream stays readable.
func TestDisconnectDoesNotCancelJob(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const reps = 16
	ctx, hangUp := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(sweepBody(21, reps)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	hangUp()
	resp.Body.Close()
	var accepted streamLine
	if err := json.Unmarshal(line, &accepted); err != nil || accepted.Type != "accepted" {
		t.Fatalf("first line %q (err %v), want the accepted line", line, err)
	}

	full := tailStream(t, ts.URL, accepted.Job, 0)
	if len(full) != reps+3 {
		t.Fatalf("stream of the abandoned job has %d lines, want %d", len(full), reps+3)
	}
	if job := s.lookup(accepted.Job); job.view(false).Status != StatusDone {
		t.Errorf("abandoned job ended %q, want %q", job.view(false).Status, StatusDone)
	}
}

// TestDrainWithoutStoreFinishesAdmittedJobs: without a durable store
// nothing could resume an interrupted job, so Drain lets every admitted
// job — the running one and the one queued behind it — finish.
func TestDrainWithoutStoreFinishesAdmittedJobs(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const reps = 16
	type result struct {
		lines []string
		err   error
	}
	results := make(chan result, 2)
	accepted := make(chan struct{}, 2)
	for seed := int64(31); seed <= 32; seed++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(sweepBody(seed, reps)))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
			var lines []string
			for sc.Scan() {
				if lines = append(lines, sc.Text()); len(lines) == 1 {
					accepted <- struct{}{}
				}
			}
			results <- result{lines, sc.Err()}
		}()
	}
	for range 2 {
		select {
		case <-accepted:
		case <-time.After(30 * time.Second):
			t.Fatal("jobs not accepted within 30s")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for range 2 {
		res := <-results
		if res.err != nil {
			t.Fatal(res.err)
		}
		if len(res.lines) != reps+3 || !strings.Contains(res.lines[reps+1], `"type":"result"`) {
			t.Errorf("drained job streamed %d lines, want a complete %d-line stream:\n%s",
				len(res.lines), reps+3, strings.Join(res.lines, "\n"))
		}
	}
}

// TestRecoveredFollowerResumes covers a restart that finds cache followers
// mid-wait: one whose leader finished before the crash is answered from the
// recovered payload, and one whose key nobody computes any more computes it
// itself — both continuing their journals append-only.
func TestRecoveredFollowerResumes(t *testing.T) {
	dir := t.TempDir()
	const reps = 3
	fs1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := mustNew(t, Config{Store: fs1})
	ts1 := httptest.NewServer(s1.Handler())
	_, _, leader := post(t, ts1, sweepBody(41, reps))
	ts1.Close()
	if _, err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Two follower journals as a crash leaves them: spec plus accepted line.
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	follow := func(id string, seed int64) {
		body := sweepBody(seed, reps)
		spec, err := parseRequest([]byte(body), 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.PutSpec(StoredSpec{ID: id, Kind: spec.kind, Tenant: anonTenant,
			Reps: spec.reps, Config: spec.rawCfg}); err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf(`{"type":"accepted","job":%q,"key":%q,"cache":"hit","total":%d}`, id, spec.key, reps)
		if err := fs.AppendStream(id, []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	follow("j-2", 41)
	follow("j-3", 42)
	fs.Close()

	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustNew(t, Config{Store: fs2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	hit := tailStream(t, ts2.URL, "j-2", 0)
	if len(hit) != 3 || !strings.Contains(hit[1], `"type":"result"`) || !strings.Contains(hit[1], `"cache":"hit"`) {
		t.Fatalf("recovered follower of a finished leader streamed:\n%s", strings.Join(hit, "\n"))
	}
	if hit[2] != leader[len(leader)-1] {
		t.Error("recovered follower's payload differs from its leader's")
	}

	led := tailStream(t, ts2.URL, "j-3", 0)
	if len(led) != reps+3 || !strings.Contains(led[reps+1], `"cache":"miss"`) {
		t.Fatalf("recovered follower without a leader streamed:\n%s", strings.Join(led, "\n"))
	}
	ref := mustNew(t, Config{})
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	if _, _, want := post(t, refTS, sweepBody(42, reps)); led[len(led)-1] != want[len(want)-1] {
		t.Error("recovered follower that led its key computed different bytes")
	}
	if _, err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
