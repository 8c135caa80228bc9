// Package client is the typed Go client of the blackdp-serve /v1 API. It
// is the one wire-client implementation in the repository: the CLI tools,
// the load harness, the soak tests and the distributed fabric's
// coordinator all speak HTTP through it.
//
// The client understands the service's typed error envelope
// {"code","message","retry_after_seconds"} — every non-2xx answer decodes
// into *APIError — and retries backpressure answers (429 and 503)
// honoring the envelope's retry_after_seconds hint. Job streams are
// consumed line-by-line with the raw bytes surfaced to the caller, so a
// stream interrupted at line N can resume byte-exactly with
// StreamResume's GET /v1/jobs/{id}/stream?offset=N.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// APIError is a service's typed non-2xx answer: the HTTP status plus the
// decoded JSON envelope. The coordinator's retry loop switches on it:
// backpressure answers (429 queue-full or rate-limited, 503 draining) are
// retried after the advertised back-off, and when a retry budget runs out
// the envelope — code and retry hint included — surfaces in the returned
// error instead of being swallowed.
type APIError struct {
	Status            int    `json:"-"`    // HTTP status code
	Code              string `json:"code"` // envelope code ("queue_full", "draining", ...)
	Message           string `json:"message"`
	RetryAfterSeconds int    `json:"retry_after_seconds"` // back-off hint; 0 when absent
}

func (e *APIError) Error() string {
	msg := fmt.Sprintf("server answered %d", e.Status)
	if e.Code != "" {
		msg += " " + e.Code
	}
	if e.Message != "" {
		msg += ": " + e.Message
	}
	if e.RetryAfterSeconds > 0 {
		msg += fmt.Sprintf(" (retry after %ds)", e.RetryAfterSeconds)
	}
	return msg
}

// Backpressure reports whether the server refused for capacity reasons
// (429) or because it is draining (503) — answers that mean "try again
// later", not "this request is broken".
func (e *APIError) Backpressure() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// DecodeError turns a non-2xx response into an *APIError, preserving the
// raw body as the message when it is not an envelope.
func DecodeError(resp *http.Response) *APIError {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	e := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	var env APIError
	if json.Unmarshal(raw, &env) == nil && env.Code != "" {
		e.Code, e.Message, e.RetryAfterSeconds = env.Code, env.Message, env.RetryAfterSeconds
	}
	return e
}

// JobError is a job that terminated with an error line in its stream —
// the job itself failed or was cancelled, as opposed to the transport.
type JobError struct {
	Job     string
	Message string
}

func (e *JobError) Error() string {
	return fmt.Sprintf("job %s failed: %s", e.Job, e.Message)
}

// ErrStop is returned by a Lines callback to stop iteration successfully.
var ErrStop = errors.New("client: stop iteration")

// Lines feeds each NDJSON line of r (without its newline) to fn. The
// buffer grows to hold result payload lines. fn returning ErrStop ends
// iteration with a nil error.
func Lines(r io.Reader, fn func(raw []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		if err := fn(sc.Bytes()); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
	return sc.Err()
}

// DoNDJSON issues req expecting an NDJSON response and returns the body
// stream; a non-2xx answer is drained into an *APIError.
func DoNDJSON(hc *http.Client, req *http.Request) (io.ReadCloser, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, DecodeError(resp)
	}
	return resp.Body, nil
}

// Probe checks a node's /v1/healthz; only a 200 with status "ok" (not
// draining) counts as live.
func Probe(ctx context.Context, hc *http.Client, baseURL string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(baseURL, "/")+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<10)).Decode(&health); err != nil {
		return false
	}
	return health.Status == "ok"
}

// Request is the POST /v1/jobs payload.
type Request struct {
	Kind    string          `json:"kind"`
	Config  json.RawMessage `json:"config,omitempty"`
	Reps    int             `json:"reps,omitempty"`
	Workers int             `json:"workers,omitempty"`
	Trace   bool            `json:"trace,omitempty"`
}

// Line is one parsed NDJSON stream line.
type Line struct {
	Type  string `json:"type"`
	Job   string `json:"job"`
	Key   string `json:"key,omitempty"`
	Cache string `json:"cache,omitempty"`
	Rep   int    `json:"rep,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Error string `json:"error,omitempty"`
}

// JobView is the GET /v1/jobs/{id} projection.
type JobView struct {
	Job       string          `json:"job"`
	Kind      string          `json:"kind"`
	Key       string          `json:"key"`
	Reps      int             `json:"reps"`
	Tenant    string          `json:"tenant,omitempty"`
	Status    string          `json:"status"`
	Cache     string          `json:"cache,omitempty"`
	Error     string          `json:"error,omitempty"`
	ElapsedMS int64           `json:"elapsed_ms"`
	HasTrace  bool            `json:"has_trace"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// Result is the terminal state of a consumed job stream.
type Result struct {
	// Job is the job ID from the accepted line ("" if the stream was
	// interrupted before it).
	Job string
	// Cache is the result line's cache marker ("hit" or "miss").
	Cache string
	// Payload is the final result payload line, verbatim.
	Payload []byte
	// Offset is the next stream offset: the number of lines consumed so
	// far plus the offset the consumption started at. After an
	// interruption, resuming at Offset replays no line twice and skips
	// none.
	Offset int
}

// Client speaks the /v1 API of one blackdp-serve (or worker) node.
type Client struct {
	// BaseURL is the node root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport (default http.DefaultClient). Use a client
	// without an overall timeout for job streams — they run as long as the
	// job does; cancellation comes from the context.
	HTTP *http.Client
	// Key is the tenant's API key, sent as "Authorization: Bearer <key>"
	// when non-empty.
	Key string
	// MaxRetries bounds retries of backpressure answers (429/503): 0 means
	// the default (4), negative disables retrying — every 429/503 surfaces
	// immediately as *APIError (load harnesses measuring rejections want
	// this).
	MaxRetries int
}

func (c *Client) hc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) retries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	if c.MaxRetries < 0 {
		return 0
	}
	return 4
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Key != "" {
		req.Header.Set("Authorization", "Bearer "+c.Key)
	}
	return req, nil
}

// backoff sleeps out a backpressure answer's retry hint (250ms when the
// envelope carries none), or returns early with the context's error.
func backoff(ctx context.Context, e *APIError) error {
	wait := time.Duration(e.RetryAfterSeconds) * time.Second
	if wait <= 0 {
		wait = 250 * time.Millisecond
	}
	select {
	case <-time.After(wait):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit posts a job and consumes its NDJSON stream. onRaw, when non-nil,
// receives every raw line byte-exact (without the newline). Backpressure
// rejections (429/503) are retried up to MaxRetries times honoring
// retry_after_seconds — a rejected submission was never admitted, so the
// retry is safe. On success the Result carries the final payload; a job
// that ends with an error line returns a *JobError; a stream interrupted
// mid-flight returns the transport error alongside a partial Result
// (Job and Offset let the caller resume durable jobs via StreamResume).
func (c *Client) Submit(ctx context.Context, r Request, onRaw func(line []byte)) (*Result, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		req, err := c.newRequest(ctx, http.MethodPost, "/v1/jobs", body)
		if err != nil {
			return nil, err
		}
		stream, err := DoNDJSON(c.hc(), req)
		if err != nil {
			var ae *APIError
			if errors.As(err, &ae) && ae.Backpressure() && attempt < c.retries() {
				if werr := backoff(ctx, ae); werr != nil {
					return nil, werr
				}
				continue
			}
			return nil, err
		}
		res, err := consumeStream(stream, 0, onRaw)
		stream.Close()
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		return res, err
	}
}

// Stream consumes GET /v1/jobs/{id}/stream?offset=N once. The Result is
// always non-nil: its Offset reports how far consumption got, terminal or
// not. Every job has a stream; only a durable one (a server started with
// -store) survives a server restart.
func (c *Client) Stream(ctx context.Context, jobID string, offset int, onRaw func(line []byte)) (*Result, error) {
	req, err := c.newRequest(ctx, http.MethodGet,
		fmt.Sprintf("/v1/jobs/%s/stream?offset=%d", jobID, offset), nil)
	if err != nil {
		return &Result{Offset: offset}, err
	}
	stream, err := DoNDJSON(c.hc(), req)
	if err != nil {
		return &Result{Offset: offset}, err
	}
	defer stream.Close()
	res, cerr := consumeStream(stream, offset, onRaw)
	if res.Job == "" {
		res.Job = jobID
	}
	return res, cerr
}

// StreamResume tails a durable job to completion, resuming byte-exactly
// across interruptions: every transport error (server restarting, 429/503
// backpressure, torn connection) backs off and re-requests the stream at
// the current offset. It stops on success, on a *JobError (the job itself
// failed — no retry will change that), or when ctx ends.
func (c *Client) StreamResume(ctx context.Context, jobID string, offset int, onRaw func(line []byte)) (*Result, error) {
	for {
		res, err := c.Stream(ctx, jobID, offset, onRaw)
		if err == nil {
			return res, nil
		}
		var je *JobError
		if errors.As(err, &je) {
			return res, err
		}
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		offset = res.Offset
		ae := &APIError{}
		if !errors.As(err, &ae) {
			ae = &APIError{} // transport error: default backoff
		}
		if werr := backoff(ctx, ae); werr != nil {
			return res, werr
		}
	}
}

// consumeStream reads stream lines until the terminal payload line. It
// returns a non-nil Result in every case; err reports a job error line
// (*JobError), a malformed stream, or a transport interruption.
func consumeStream(r io.Reader, startOffset int, onRaw func(line []byte)) (*Result, error) {
	res := &Result{Offset: startOffset}
	payloadNext := false
	err := Lines(r, func(raw []byte) error {
		if onRaw != nil {
			onRaw(raw)
		}
		res.Offset++
		if payloadNext {
			res.Payload = append([]byte(nil), raw...)
			return ErrStop
		}
		var line Line
		if err := json.Unmarshal(raw, &line); err != nil {
			return fmt.Errorf("client: parsing stream line: %w", err)
		}
		if line.Job != "" {
			res.Job = line.Job
		}
		switch line.Type {
		case "accepted", "progress":
		case "error":
			return &JobError{Job: res.Job, Message: line.Error}
		case "result":
			res.Cache = line.Cache
			payloadNext = true
		default:
			return fmt.Errorf("client: unknown stream line type %q", line.Type)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if res.Payload == nil {
		return res, fmt.Errorf("client: stream ended without a result: %w", io.ErrUnexpectedEOF)
	}
	return res, nil
}

// List fetches the caller's retained jobs.
func (c *Client) List(ctx context.Context) ([]JobView, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/jobs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, DecodeError(resp)
	}
	var out struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Get fetches one job's status and result.
func (c *Client) Get(ctx context.Context, jobID string) (*JobView, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, DecodeError(resp)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Cancel aborts a queued or running job (DELETE /v1/jobs/{id}).
func (c *Client) Cancel(ctx context.Context, jobID string) error {
	req, err := c.newRequest(ctx, http.MethodDelete, "/v1/jobs/"+jobID, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return DecodeError(resp)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}
