package sched

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/jobs"
)

// queuedJob builds a queued-job snapshot the way the store hands them to
// the picker.
func queuedJob(id int, tenant string, class Class) *jobs.Job {
	return &jobs.Job{
		ID:     fmt.Sprintf("j%08d", id),
		State:  jobs.Queued,
		Tenant: tenant,
		Class:  string(class),
	}
}

func runningJob(id int, tenant string) *jobs.Job {
	return &jobs.Job{ID: fmt.Sprintf("j%08d", id), State: jobs.Running, Tenant: tenant}
}

// drain simulates a contended queue: every class keeps a deep backlog,
// and each pick removes the chosen job. Returns picks per class.
func drain(s *Scheduler, queue []*jobs.Job, n int) map[Class]int {
	got := map[Class]int{}
	for i := 0; i < n && len(queue) > 0; i++ {
		id := s.Pick(queue, nil)
		if id == "" {
			break
		}
		for k, j := range queue {
			if j.ID == id {
				got[ClassOf(j.Class)]++
				queue = append(queue[:k], queue[k+1:]...)
				break
			}
		}
	}
	return got
}

func TestWeightedSharesMatchWeights(t *testing.T) {
	s := New(Config{})
	var queue []*jobs.Job
	for i := 0; i < 300; i++ {
		queue = append(queue, queuedJob(3*i+1, "a", Interactive), queuedJob(3*i+2, "b", Batch), queuedJob(3*i+3, "c", Bulk))
	}
	got := drain(s, queue, 210)
	// Out of every 21 contended picks: 16 interactive, 4 batch, 1 bulk.
	if got[Interactive] != 160 || got[Batch] != 40 || got[Bulk] != 10 {
		t.Fatalf("shares: %+v, want 160/40/10", got)
	}
}

func TestBulkCannotStarveInteractive(t *testing.T) {
	s := New(Config{})
	// A deep bulk backlog with one interactive job arriving late: the
	// interactive job must be picked immediately on the next dequeue,
	// not after the backlog drains.
	var queue []*jobs.Job
	for i := 0; i < 100; i++ {
		queue = append(queue, queuedJob(i+1, "flood", Bulk))
	}
	for i := 0; i < 5; i++ {
		if id := s.Pick(queue, nil); id != queue[0].ID {
			t.Fatalf("pick %d: got %s want %s", i, id, queue[0].ID)
		}
		queue = queue[1:]
	}
	inter := queuedJob(1000, "alice", Interactive)
	queue = append(queue, inter)
	if id := s.Pick(queue, nil); id != inter.ID {
		t.Fatalf("interactive arrival not prioritized: got %s", id)
	}
}

func TestIdleClassGainsNoCredit(t *testing.T) {
	s := New(Config{})
	// Burn 50 bulk picks while interactive is empty, then offer both:
	// interactive must not monopolize beyond its weight share going
	// forward (its virtual time is re-aligned, not back-dated), and bulk
	// must keep winning its 1-in-17 share.
	var queue []*jobs.Job
	for i := 0; i < 400; i++ {
		queue = append(queue, queuedJob(i+1, "flood", Bulk))
	}
	for i := 0; i < 50; i++ {
		id := s.Pick(queue, nil)
		if id == "" {
			t.Fatal("empty pick")
		}
		queue = queue[1:]
	}
	for i := 0; i < 200; i++ {
		queue = append(queue, queuedJob(10000+i, "alice", Interactive))
	}
	got := drain(s, queue, 170)
	if got[Bulk] == 0 {
		t.Fatalf("bulk starved after interactive joined: %+v", got)
	}
	if got[Interactive] < 150 {
		t.Fatalf("interactive under-served: %+v", got)
	}
}

func TestTenantRunningQuotaFiltersPicks(t *testing.T) {
	s := New(Config{TenantMaxRunning: 2})
	queued := []*jobs.Job{
		queuedJob(3, "hog", Interactive),
		queuedJob(4, "hog", Interactive),
		queuedJob(5, "small", Bulk),
	}
	running := []*jobs.Job{runningJob(1, "hog"), runningJob(2, "hog")}
	// hog is at quota: the only eligible job is small's bulk job.
	if id := s.Pick(queued, running); id != "j00000005" {
		t.Fatalf("pick with hog at quota: %s", id)
	}
	// With nothing else eligible, the pick declines rather than exceed
	// the quota.
	if id := s.Pick(queued[:2], running); id != "" {
		t.Fatalf("expected decline, got %s", id)
	}
	if st := s.Stats(); st.QuotaDeferrals != 1 {
		t.Fatalf("deferrals: %+v", st)
	}
	// A slot frees: hog becomes eligible again.
	if id := s.Pick(queued[:2], running[:1]); id != "j00000003" {
		t.Fatalf("pick after slot freed: %s", id)
	}
}

func TestAdmitEnforcesActiveQuota(t *testing.T) {
	s := New(Config{TenantMaxActive: 2})
	active := []*jobs.Job{queuedJob(1, "t", Batch), runningJob(2, "t")}
	err := s.Admit("t")(active)
	qe, ok := err.(*QuotaError)
	if !ok {
		t.Fatalf("want *QuotaError, got %v", err)
	}
	if qe.Tenant != "t" || qe.Limit != 2 || qe.Active != 2 {
		t.Fatalf("quota error: %+v", qe)
	}
	if err := s.Admit("other")(active); err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
	if st := s.Stats(); st.QuotaRejects != 1 {
		t.Fatalf("rejects: %+v", st)
	}
}

func TestPickSequenceDeterministic(t *testing.T) {
	mk := func(seed int64) []string {
		s := New(Config{Seed: seed, TenantMaxRunning: 3})
		var queue []*jobs.Job
		for i := 0; i < 60; i++ {
			tenant := fmt.Sprintf("t%d", i%4)
			queue = append(queue, queuedJob(i+1, tenant, classes[i%3]))
		}
		var picks []string
		for len(queue) > 0 {
			id := s.Pick(queue, nil)
			if id == "" {
				t.Fatal("scheduler declined a quota-free queue")
			}
			picks = append(picks, id)
			for k, j := range queue {
				if j.ID == id {
					queue = append(queue[:k], queue[k+1:]...)
					break
				}
			}
		}
		return picks
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d diverged: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{"": Batch, "interactive": Interactive, " Bulk ": Bulk, "BATCH": Batch} {
		c, err := ParseClass(in)
		if err != nil || c != want {
			t.Fatalf("ParseClass(%q) = %v, %v", in, c, err)
		}
	}
	if _, err := ParseClass("platinum"); err == nil {
		t.Fatal("bad class accepted")
	}
}

func TestWarmStoreKeepsBestDonor(t *testing.T) {
	w := NewWarmStore()
	at := time.Unix(1000, 0).UTC()
	cp := json.RawMessage(`{"v":1}`)
	if !w.Put("k", "j1", 500, cp, at) {
		t.Fatal("first put refused")
	}
	if w.Put("k", "j2", 600, cp, at) {
		t.Fatal("worse donor replaced better")
	}
	if !w.Put("k", "j3", 400, cp, at) {
		t.Fatal("better donor refused")
	}
	if w.Put("", "j4", 400, cp, at) || w.Put("k2", "j4", 0, cp, at) || w.Put("k2", "j4", 5, nil, at) {
		t.Fatal("degenerate put accepted")
	}
	e, ok := w.Get("k")
	if !ok || e.JobID != "j3" || e.BestCycles != 400 {
		t.Fatalf("entry: %+v ok=%v", e, ok)
	}
	if _, ok := w.Get("missing"); ok {
		t.Fatal("phantom hit")
	}
	st := w.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Puts != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestWarmStoreSharesCheckpoint: the library keeps the checkpoint it is
// offered without copying it and hands the same bytes out, capacity-
// capped, so appending to one lookup's checkpoint copies and leaves the
// library and the next lookup unchanged.
func TestWarmStoreSharesCheckpoint(t *testing.T) {
	w := NewWarmStore()
	text := `{"v":1}`
	cp := append(make(json.RawMessage, 0, 4*len(text)), text...)
	w.Put("k", "j1", 500, cp, time.Unix(1000, 0).UTC())
	a, _ := w.Get("k")
	if &a.Checkpoint[0] != &cp[0] {
		t.Error("Get copied the checkpoint instead of sharing it")
	}
	a1 := append(a.Checkpoint, 'A')
	b, _ := w.Get("k")
	b1 := append(b.Checkpoint, 'B')
	if string(a1) != text+"A" || string(b1) != text+"B" || string(cp[:cap(cp)][:len(text)+1]) != text+"\x00" {
		t.Errorf("appends to looked-up checkpoints aliased: %q %q, library %q", a1, b1, cp[:cap(cp)])
	}
}
