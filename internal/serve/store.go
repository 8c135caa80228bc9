package serve

// Durable jobs. A JobStore persists each accepted job as three
// append-only artifacts:
//
//   - the spec: the validated request (kind, canonical config JSON, reps,
//     pool, trace flag, tenant) — everything needed to re-admit the job
//     after a restart;
//   - the stream journal: the job's NDJSON response lines, wire-exact — the
//     journal IS the canonical stream, POST responses and
//     GET /v1/jobs/{id}/stream?offset=N both replay it verbatim;
//   - the outcomes journal: one metrics.Outcome JSON line per completed
//     replication, strictly in replication order.
//
// The outcomes journal is the resume frontier: a restarted server counts
// its complete lines and continues the sweep at that replication via
// scenario.RunSweepRange — seeds are a pure function of the global
// replication index, so the continuation is byte-identical to the part an
// uninterrupted run would have produced. Outcome JSON round-trips exactly
// (the struct is ints, bools, strings and Durations — no floats), so the
// final result payload rebuilt from stored outcomes matches an
// uninterrupted run byte for byte.
//
// FileStore, the on-disk implementation, never rewrites: appends go
// straight to the files with no fsync — surviving SIGKILL of the process
// only needs the OS page cache, which outlives it. A line torn by a
// machine-level crash is detected on load (no trailing newline) and
// truncated away; at most one segment of replications re-executes.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// StoredSpec is the durable record of an accepted job: enough to re-admit
// and re-execute it after a restart.
type StoredSpec struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	Tenant string          `json:"tenant"`
	Reps   int             `json:"reps"`
	Pool   int             `json:"workers,omitempty"`
	Trace  bool            `json:"trace,omitempty"`
	Config json.RawMessage `json:"config"`
}

// StoredJob is one recovered job: its spec plus both journals' complete
// lines (torn trailing lines already truncated).
type StoredJob struct {
	Spec     StoredSpec
	Stream   [][]byte
	Outcomes [][]byte
}

// JobStore persists jobs across restarts. Implementations must be safe for
// concurrent use and must only ever append to a job's journals — recovery
// depends on prefixes staying immutable.
type JobStore interface {
	// PutSpec persists a new job's spec.
	PutSpec(spec StoredSpec) error
	// AppendStream appends one NDJSON line (no trailing newline) to the
	// job's stream journal.
	AppendStream(id string, line []byte) error
	// AppendOutcomes appends outcome JSON lines (no trailing newlines) to
	// the job's outcomes journal.
	AppendOutcomes(id string, lines [][]byte) error
	// Load recovers every stored job, truncating torn trailing lines.
	Load() ([]StoredJob, error)
	// Remove deletes a job's artifacts (retention eviction).
	Remove(id string) error
}

// memStore is the JobStore of a server without Config.Store: it persists
// nothing. A job's liveStream already holds every stream line, and there
// is no next process to recover them.
type memStore struct{}

func (memStore) PutSpec(StoredSpec) error              { return nil }
func (memStore) AppendStream(string, []byte) error     { return nil }
func (memStore) AppendOutcomes(string, [][]byte) error { return nil }
func (memStore) Load() ([]StoredJob, error)            { return nil, nil }
func (memStore) Remove(string) error                   { return nil }

// FileStore is the on-disk JobStore: <dir>/<id>.spec.json,
// <dir>/<id>.stream.ndjson, <dir>/<id>.outcomes.ndjson.
type FileStore struct {
	dir string

	mu      sync.Mutex
	writers map[string]*os.File // open appenders, keyed "<id>.<journal>"
}

// NewFileStore opens (creating if needed) a store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{dir: dir, writers: make(map[string]*os.File)}, nil
}

// Dir reports the store root.
func (fs *FileStore) Dir() string { return fs.dir }

func (fs *FileStore) path(id, suffix string) string {
	return filepath.Join(fs.dir, id+"."+suffix)
}

// PutSpec persists a new job's spec.
func (fs *FileStore) PutSpec(spec StoredSpec) error {
	b, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	return os.WriteFile(fs.path(spec.ID, "spec.json"), b, 0o644)
}

func (fs *FileStore) appender(id, suffix string) (*os.File, error) {
	key := id + "." + suffix
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.writers[key]; ok {
		return f, nil
	}
	f, err := os.OpenFile(fs.path(id, suffix), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fs.writers[key] = f
	return f, nil
}

// AppendStream appends one stream-journal line.
func (fs *FileStore) AppendStream(id string, line []byte) error {
	f, err := fs.appender(id, "stream.ndjson")
	if err != nil {
		return err
	}
	_, err = f.Write(append(append(make([]byte, 0, len(line)+1), line...), '\n'))
	return err
}

// AppendOutcomes appends outcome lines as one write.
func (fs *FileStore) AppendOutcomes(id string, lines [][]byte) error {
	f, err := fs.appender(id, "outcomes.ndjson")
	if err != nil {
		return err
	}
	var buf []byte
	for _, l := range lines {
		buf = append(buf, l...)
		buf = append(buf, '\n')
	}
	_, err = f.Write(buf)
	return err
}

// loadLines reads a journal's complete lines; a torn trailing line (no
// newline) is truncated off the file so subsequent appends stay aligned.
func loadLines(path string) ([][]byte, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	keep := len(b)
	for keep > 0 && b[keep-1] != '\n' {
		keep--
	}
	if keep < len(b) {
		if err := os.Truncate(path, int64(keep)); err != nil {
			return nil, err
		}
		b = b[:keep]
	}
	var lines [][]byte
	for len(b) > 0 {
		nl := 0
		for nl < len(b) && b[nl] != '\n' {
			nl++
		}
		lines = append(lines, b[:nl:nl])
		b = b[nl+1:]
	}
	return lines, nil
}

// Load recovers every stored job in id order.
func (fs *FileStore) Load() ([]StoredJob, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".spec.json"); ok {
			ids = append(ids, name)
		}
	}
	// Jobs are j-<n>; recover them in submission order so the registry
	// lists them the way an uninterrupted server would.
	sort.Slice(ids, func(i, j int) bool {
		return jobSeq(ids[i]) < jobSeq(ids[j])
	})
	jobs := make([]StoredJob, 0, len(ids))
	for _, id := range ids {
		b, err := os.ReadFile(fs.path(id, "spec.json"))
		if err != nil {
			return nil, err
		}
		var spec StoredSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return nil, fmt.Errorf("serve: store: corrupt spec %s: %w", id, err)
		}
		stream, err := loadLines(fs.path(id, "stream.ndjson"))
		if err != nil {
			return nil, err
		}
		outcomes, err := loadLines(fs.path(id, "outcomes.ndjson"))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, StoredJob{Spec: spec, Stream: stream, Outcomes: outcomes})
	}
	return jobs, nil
}

// Remove deletes a job's artifacts and closes its appenders.
func (fs *FileStore) Remove(id string) error {
	fs.mu.Lock()
	for _, suffix := range []string{"stream.ndjson", "outcomes.ndjson"} {
		if f, ok := fs.writers[id+"."+suffix]; ok {
			f.Close()
			delete(fs.writers, id+"."+suffix)
		}
	}
	fs.mu.Unlock()
	var first error
	for _, suffix := range []string{"spec.json", "stream.ndjson", "outcomes.ndjson"} {
		if err := os.Remove(fs.path(id, suffix)); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}

// Close closes every open appender (the files are append-only, so this is
// bookkeeping, not durability).
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for k, f := range fs.writers {
		f.Close()
		delete(fs.writers, k)
	}
	return nil
}

// jobSeq extracts n from "j-<n>" (0 for anything else).
func jobSeq(id string) uint64 {
	s, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return n
}
