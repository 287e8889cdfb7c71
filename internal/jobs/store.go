package jobs

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

const (
	logName      = "jobs.log"
	snapshotName = "snapshot.json"
	// snapshotEvery bounds log growth: the store rewrites the snapshot and
	// truncates the log once the log holds at least this many records and
	// at least as many bytes as the last snapshot. The byte condition makes
	// a snapshot cost no more than the appends it absorbs, so persistence
	// stays linear in the mutations however many jobs the store holds;
	// replay reads at most max(snapshotEvery records, one snapshot's bytes)
	// of log.
	snapshotEvery = 256
	// maxRecordBytes caps one log line; checkpoints dominate record size
	// and stay far below this.
	maxRecordBytes = 64 << 20
)

// Store is the durable job store: an in-memory map backed by a JSONL
// append log (one full job JSON per mutation, last write wins on replay)
// plus a snapshot rewritten as the log outgrows it (see snapshotEvery).
// With dir == "" it is memory-only, which tests and ephemeral servers use.
//
// Crash safety comes from the append log being redundant with the
// snapshot: replay applies the snapshot first, then the log on top, and a
// torn final line (a crash mid-append) is detected and dropped.
type Store struct {
	mu   sync.Mutex
	dir  string
	now  func() time.Time
	jobs map[string]*Job
	// active indexes the non-terminal (queued or running) jobs of jobs,
	// by the same pointers, so claims, lease sweeps, admission and
	// recovery cost O(active jobs) rather than O(every job ever held).
	// putLocked, setStateLocked and deleteLocked keep the two in step.
	active map[string]*Job
	seq    uint64
	// picker, when set, chooses which queued job ClaimNext hands out
	// (the scheduler's dequeue hook). Nil keeps the FIFO default.
	picker Picker
	// poisonSeq counts quarantine transitions for metrics.
	poisonSeq uint64
	// leaseSeq is the fencing-token counter: monotonic across the store's
	// whole lifetime (persisted), so a token granted before a restart can
	// never collide with one granted after.
	leaseSeq uint64
	log      *os.File
	// appends and logBytes count the log lines and bytes since the last
	// snapshot; snapBytes is that snapshot's size.
	appends   int
	logBytes  int
	snapBytes int
	// buf is appendJob's scratch for log lines and snapshot records,
	// reused so a steady-state append allocates nothing.
	buf []byte
}

// snapshotFile is the on-disk snapshot payload.
type snapshotFile struct {
	Seq      uint64 `json:"seq"`
	LeaseSeq uint64 `json:"lease_seq,omitempty"`
	Jobs     []*Job `json:"jobs"`
}

// Open loads (or creates) a store under dir. A nil now defaults to the
// wall clock; tests inject a fake. Jobs found in state Running were
// interrupted by a crash or kill — Open re-queues them (checkpoint and
// attempt count retained) so the manager resumes them.
func Open(dir string, now func() time.Time) (*Store, error) {
	if now == nil {
		now = time.Now
	}
	s := &Store{dir: dir, now: now, jobs: map[string]*Job{}, active: map[string]*Job{}}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create data dir: %w", err)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.recover()
	// Persist recovery edits and fold the replayed log into a fresh
	// snapshot, so the next open replays nothing.
	if err := s.compact(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open log: %w", err)
	}
	s.log = f
	return s, nil
}

// load replays snapshot.json then jobs.log into the in-memory map. A
// decoded RawMessage keeps its input's spacing, so each payload is
// canonicalised before it joins the store.
func (s *Store) load() error {
	if b, err := os.ReadFile(filepath.Join(s.dir, snapshotName)); err == nil {
		var snap snapshotFile
		if err := json.Unmarshal(b, &snap); err != nil {
			return fmt.Errorf("jobs: corrupt snapshot: %w", err)
		}
		s.seq = snap.Seq
		s.leaseSeq = snap.LeaseSeq
		for _, j := range snap.Jobs {
			if err := canonicalPayloads(j); err != nil {
				return fmt.Errorf("jobs: corrupt snapshot: %w", err)
			}
			s.putLocked(j)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("jobs: read snapshot: %w", err)
	}

	f, err := os.Open(filepath.Join(s.dir, logName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobs: read log: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxRecordBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var j Job
		if err := json.Unmarshal(line, &j); err != nil || j.ID == "" || canonicalPayloads(&j) != nil {
			// A torn tail from a crash mid-append; everything before it
			// already applied, so stop replaying here.
			break
		}
		if j.Tombstone {
			s.deleteLocked(j.ID)
		} else {
			s.putLocked(&j)
		}
		if n := idSeq(j.ID); n > s.seq {
			s.seq = n
		}
		if j.Lease != nil && j.Lease.Token > s.leaseSeq {
			s.leaseSeq = j.Lease.Token
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("jobs: scan log: %w", err)
	}
	return nil
}

// recover re-queues jobs a previous process died while running. Jobs held
// under a live remote lease are left alone: the worker renewing that lease
// is on another node and survived this process's crash — it will keep
// checkpointing against the recovered store. Process-local leases (zero
// expiry) died with the process, and expired remote leases are dead by
// definition; both re-queue, checkpoint and attempts intact — unless the
// job has exhausted its failover budget, in which case it is quarantined.
func (s *Store) recover() {
	now := s.now()
	for _, j := range s.active {
		if j.State != Running {
			continue
		}
		if j.Lease != nil && !j.Lease.Expires.IsZero() && now.Before(j.Lease.Expires) {
			continue // live remote lease: the worker is still out there
		}
		owner := "?"
		if j.Lease != nil {
			owner = j.Lease.Owner
		}
		j.Trail = trailAppend(j.Trail, fmt.Sprintf("%s attempt %d (%s): interrupted by restart", now.UTC().Format(time.RFC3339), j.Attempts, owner))
		if s.exhaustedLocked(j) {
			s.poisonLocked(j)
			continue
		}
		s.requeueLocked(j)
	}
}

// putLocked stores j under its ID and files it in the active index by
// its state.
func (s *Store) putLocked(j *Job) {
	s.jobs[j.ID] = j
	s.setStateLocked(j, j.State)
}

// setStateLocked moves a stored job to state st, keeping the active index
// in step. Every state change goes through here.
func (s *Store) setStateLocked(j *Job, st State) {
	j.State = st
	if st.Terminal() {
		delete(s.active, j.ID)
	} else {
		s.active[j.ID] = j
	}
}

// deleteLocked forgets a job entirely.
func (s *Store) deleteLocked(id string) {
	delete(s.jobs, id)
	delete(s.active, id)
}

// byCreation orders jobs by creation sequence. IDs are "j%08d", so past
// j99999999 the padding runs out and a longer ID is a later one; IDs of
// one length compare as strings.
func byCreation(a, b *Job) int {
	if c := cmp.Compare(len(a.ID), len(b.ID)); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

// idSeq parses the numeric part of a "jNNNNNNNN" id, 0 if malformed.
func idSeq(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return 0
	}
	return n
}

// Create appends a new queued job and returns a snapshot of it.
func (s *Store) Create(kind string, req json.RawMessage) (*Job, error) {
	return s.CreateWith(CreateSpec{Kind: kind, Request: req}, nil)
}

// CreateSpec names everything a new job carries besides its payload.
type CreateSpec struct {
	Kind        string
	Request     json.RawMessage
	Tenant      string
	Class       string
	MaxAttempts int
}

// CreateWith appends a new queued job after running the admission check
// under the store lock: admit sees a snapshot of every non-terminal job
// (in creation order) and a non-nil return refuses the submission with that
// error, atomically with respect to concurrent creates and claims. This
// is what makes per-tenant quotas race-free and — because tenant and
// class are persisted on the record — restart-proof. An invalid request
// payload is refused before admission runs, and no job is created.
func (s *Store) CreateWith(spec CreateSpec, admit func(active []*Job) error) (*Job, error) {
	req, err := canonicalRaw("request", spec.Request)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if admit != nil {
		active := make([]*Job, 0, len(s.active))
		for _, j := range s.active {
			active = append(active, j.Clone())
		}
		slices.SortFunc(active, byCreation)
		if err := admit(active); err != nil {
			return nil, err
		}
	}
	s.seq++
	j := &Job{
		ID:          fmt.Sprintf("j%08d", s.seq),
		Kind:        spec.Kind,
		State:       Queued,
		Request:     req,
		Tenant:      spec.Tenant,
		Class:       spec.Class,
		MaxAttempts: spec.MaxAttempts,
		CreatedAt:   s.now().UTC(),
	}
	s.putLocked(j)
	if err := s.appendLocked(j); err != nil {
		return nil, err
	}
	return j.Clone(), nil
}

// SetPicker installs the scheduler's dequeue hook (see Picker). Install
// it before workers start claiming; nil restores FIFO.
func (s *Store) SetPicker(p Picker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.picker = p
}

// PoisonCount reports how many quarantine transitions this store has
// performed since open (metrics counter; not persisted).
func (s *Store) PoisonCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poisonSeq
}

// Get returns a snapshot of one job.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.Clone(), true
}

// List returns snapshots of all jobs in creation order.
func (s *Store) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.Clone())
	}
	slices.SortFunc(out, byCreation)
	return out
}

// Update persists a new version of the job (whole-record, last-wins). An
// invalid raw payload fails the update and leaves the stored job as it was.
func (s *Store) Update(j *Job) error {
	c := j.Clone()
	if err := canonicalPayloads(c); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[j.ID]; !ok {
		return fmt.Errorf("jobs: update unknown job %s", j.ID)
	}
	s.putLocked(c)
	return s.appendLocked(c)
}

// Now returns the store's clock reading (the injected clock in tests).
func (s *Store) Now() time.Time { return s.now() }

// appendLocked writes one log line and snapshots when the log has grown.
func (s *Store) appendLocked(j *Job) error {
	if s.log == nil {
		return nil
	}
	b, err := appendJob(s.buf[:0], j)
	if err != nil {
		return fmt.Errorf("jobs: marshal job: %w", err)
	}
	b = append(b, '\n')
	s.buf = b
	if _, err := s.log.Write(b); err != nil {
		return fmt.Errorf("jobs: append log: %w", err)
	}
	s.appends++
	s.logBytes += len(b)
	if s.appends >= snapshotEvery && s.logBytes >= s.snapBytes {
		return s.rotateLocked()
	}
	return nil
}

// compact writes a snapshot and truncates the log (open-time path, before
// the append handle exists).
func (s *Store) compact() error {
	if err := s.writeSnapshot(); err != nil {
		return err
	}
	if err := os.Truncate(filepath.Join(s.dir, logName), 0); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("jobs: truncate log: %w", err)
	}
	s.appends, s.logBytes = 0, 0
	return nil
}

// rotateLocked is compact for a live store: snapshot, then reset the open
// append handle.
func (s *Store) rotateLocked() error {
	if err := s.writeSnapshot(); err != nil {
		return err
	}
	if err := s.log.Truncate(0); err != nil {
		return fmt.Errorf("jobs: truncate log: %w", err)
	}
	if _, err := s.log.Seek(0, 0); err != nil {
		return fmt.Errorf("jobs: rewind log: %w", err)
	}
	s.appends, s.logBytes = 0, 0
	return nil
}

// writeSnapshot atomically replaces snapshot.json (tmp + rename). The
// records stream through appendJob into a buffered writer, one job at a
// time, so a snapshot never holds every job's bytes at once.
func (s *Store) writeSnapshot() error {
	all := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	slices.SortFunc(all, byCreation)
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: write snapshot: %w", err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	var n int
	s.buf, n, err = writeSnapshotTo(w, s.buf, s.seq, s.leaseSeq, all)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("jobs: install snapshot: %w", err)
	}
	s.snapBytes = n
	return nil
}

// Close flushes and closes the append log. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Sync()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	s.log = nil
	return err
}
