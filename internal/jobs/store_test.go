package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic injected clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Second)
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestStorePersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Create("search", json.RawMessage(`{"workload":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Create("search", json.RawMessage(`{"workload":"y"}`))
	if err != nil {
		t.Fatal(err)
	}
	b.State = Done
	b.Result = json.RawMessage(`{"cycles":42}`)
	if err := s.Update(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jobs := s2.List()
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs after reopen, want 2", len(jobs))
	}
	if jobs[0].ID != a.ID || jobs[0].State != Queued {
		t.Errorf("job %s state %s, want queued", jobs[0].ID, jobs[0].State)
	}
	if jobs[1].State != Done || string(jobs[1].Result) != `{"cycles":42}` {
		t.Errorf("job %s lost its result: %+v", jobs[1].ID, jobs[1])
	}
	// IDs keep increasing after reopen — no reuse.
	c, err := s2.Create("search", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID <= b.ID {
		t.Errorf("new id %s not after %s", c.ID, b.ID)
	}
}

func TestStoreRecoveryRequeuesRunning(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.Create("search", nil)
	j.State = Running
	j.Attempts = 1
	j.StartedAt = clk.Now()
	j.Checkpoint = json.RawMessage(`{"next_gen":3}`)
	j.CheckpointAt = clk.Now()
	if err := s.Update(j); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Close, just reopen the directory.
	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get(j.ID)
	if !ok {
		t.Fatal("job lost across crash")
	}
	if got.State != Queued {
		t.Errorf("state %s after recovery, want queued", got.State)
	}
	if got.Attempts != 1 {
		t.Errorf("attempts %d, want 1 (preserved)", got.Attempts)
	}
	if string(got.Checkpoint) != `{"next_gen":3}` {
		t.Errorf("checkpoint lost in recovery: %q", got.Checkpoint)
	}
	if !got.StartedAt.IsZero() {
		t.Errorf("started_at not cleared: %v", got.StartedAt)
	}
}

func TestStoreTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.Create("search", nil)
	s.Close()
	// Append a torn half-record, as if the process died mid-write.
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"j000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Get(j.ID); !ok {
		t.Error("intact record before the torn tail was lost")
	}
}

func TestStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.Create("search", nil)
	for i := 0; i < snapshotEvery+5; i++ {
		j.Progress = json.RawMessage(`{"generation":` + string(rune('0'+i%10)) + `}`)
		if err := s.Update(j); err != nil {
			t.Fatal(err)
		}
	}
	// The log must have been truncated by the rotation; only the few
	// post-snapshot appends remain.
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 10_000 {
		t.Errorf("log is %d bytes after %d updates; compaction is not running", fi.Size(), snapshotEvery+5)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Errorf("no snapshot written: %v", err)
	}
	s.Close()
	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(j.ID); !ok {
		t.Error("job lost across compaction + reopen")
	}
}

// TestStoreSnapshotsAmortised drives thousands of job lifecycles through
// one store: the bytes it spends rewriting snapshots must stay within a
// small constant multiple of the bytes it appends to the log (rewriting
// every held job every snapshotEvery appends would grow with the number
// of jobs held), and a reopen must recover every job.
func TestStoreSnapshotsAmortised(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	const lifecycles = 2000
	checkpoint := json.RawMessage(`{"next_gen":2,"population":"` + strings.Repeat("x", 600) + `"}`)
	result := json.RawMessage(`{"cycles":12345,"tree":"` + strings.Repeat("y", 300) + `"}`)
	var logBytes, snapBytes, rotations int
	// step runs one store call and attributes its bytes: the log bytes it
	// appended, or, when it rotated, the snapshot it wrote (the rotating
	// record itself goes uncounted, which only makes the bound stricter).
	step := func(call func() (*Job, error)) *Job {
		t.Helper()
		before := s.logBytes
		j, err := call()
		if err != nil {
			t.Fatal(err)
		}
		if s.appends == 0 {
			rotations++
			snapBytes += s.snapBytes
		} else {
			logBytes += s.logBytes - before
		}
		return j
	}
	for i := 0; i < lifecycles; i++ {
		j := step(func() (*Job, error) { return s.Create("search", json.RawMessage(`{"seed":`+strconv.Itoa(i)+`}`)) })
		c := step(func() (*Job, error) { return s.ClaimNext("w", time.Hour) })
		for gen := 1; gen <= 2; gen++ {
			progress := json.RawMessage(`{"generation":` + strconv.Itoa(gen) + `}`)
			step(func() (*Job, error) { return s.CommitUpdate(j.ID, c.Lease.Token, progress, checkpoint) })
		}
		step(func() (*Job, error) { return s.Complete(j.ID, c.Lease.Token, Done, result, "") })
	}
	if rotations == 0 {
		t.Fatal("no snapshot rotation in the whole run")
	}
	if snapBytes > 2*logBytes {
		t.Errorf("%d rotations wrote %d snapshot bytes for %d log bytes; want at most 2x", rotations, snapBytes, logBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.List()
	if len(got) != lifecycles {
		t.Fatalf("reopen recovered %d jobs, want %d", len(got), lifecycles)
	}
	for _, j := range got {
		if j.State != Done || !bytes.Equal(j.Result, result) {
			t.Fatalf("job %s recovered as %s with result %q", j.ID, j.State, j.Result)
		}
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	s, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Create("search", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(j.ID); !ok {
		t.Error("memory-only store dropped the job")
	}
}
