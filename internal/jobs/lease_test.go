package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestLeaseLifecycle(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	defer s.Close()
	created, err := s.Create("search", json.RawMessage(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}

	j, err := s.ClaimNext("w1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != created.ID || j.State != Running || j.Attempts != 1 {
		t.Fatalf("claim gave %+v", j)
	}
	if j.Lease == nil || j.Lease.Owner != "w1" || j.Lease.Token == 0 || j.Lease.Expires.IsZero() {
		t.Fatalf("claim lease %+v", j.Lease)
	}
	token := j.Lease.Token

	r, err := s.Renew(j.ID, token, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Lease.Expires.After(j.Lease.Expires) {
		t.Errorf("renew did not extend: %v -> %v", j.Lease.Expires, r.Lease.Expires)
	}

	u, err := s.CommitUpdate(j.ID, token, payload(`{"generation":2}`), payload(`{"cp":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(u.Progress) != `{"generation":2}` || string(u.Checkpoint) != `{"cp":2}` || u.CheckpointAt.IsZero() {
		t.Errorf("commit update lost payloads: %+v", u)
	}

	fin, err := s.Complete(j.ID, token, Done, payload(`{"cycles":7}`), "")
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != Done || fin.Lease != nil || fin.FinishedAt.IsZero() {
		t.Errorf("complete gave %+v", fin)
	}
	// The consumed lease guards nothing anymore.
	if _, err := s.Renew(j.ID, token, time.Hour); !errors.Is(err, ErrStaleLease) {
		t.Errorf("renew after complete: %v, want ErrStaleLease", err)
	}
}

// TestFailedClaimAppendRollsBack: a claim whose log append fails leaves
// the job queued and unchanged (state, lease, attempts, start time, the
// fencing-token counter and the active index), so a later claim with a
// working log hands it out as its first attempt.
func TestFailedClaimAppendRollsBack(t *testing.T) {
	t.Run("ClaimNext", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, newFakeClock().Now)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		created, err := s.Create("search", json.RawMessage(`{"x":1}`))
		if err != nil {
			t.Fatal(err)
		}

		if err := s.log.Close(); err != nil {
			t.Fatal(err)
		}
		if j, err := s.ClaimNext("w1", 0); err == nil {
			t.Fatalf("claim with a closed log succeeded: %+v", j)
		}
		got, _ := s.Get(created.ID)
		if !reflect.DeepEqual(got, created) {
			t.Errorf("failed claim changed the job:\n got %+v\nwant %+v", got, created)
		}
		if s.leaseSeq != 0 || s.active[created.ID] == nil {
			t.Errorf("failed claim left lease counter %d, active entry %v", s.leaseSeq, s.active[created.ID])
		}

		f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		s.log = f
		j, err := s.ClaimNext("w1", 0)
		if err != nil {
			t.Fatal(err)
		}
		if j.ID != created.ID || j.State != Running || j.Attempts != 1 || j.Lease.Token != 1 {
			t.Errorf("claim after the log recovered: %+v (lease %+v); want attempt 1 under token 1", j, j.Lease)
		}
	})
}

func TestCompleteRejectsNonTerminalState(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	defer s.Close()
	s.Create("search", nil)
	j, _ := s.ClaimNext("w1", time.Hour)
	if _, err := s.Complete(j.ID, j.Lease.Token, Running, Payload{}, ""); err == nil {
		t.Error("complete accepted a non-terminal state")
	}
}

// TestStaleLeaseCannotCommit is the lease-safety acceptance test at the
// store layer: once a partitioned worker's lease expires and the job moves
// on, every write under the old fencing token is rejected with the coded
// ErrStaleLease — the stale worker can never commit a result.
func TestStaleLeaseCannotCommit(t *testing.T) {
	clk := newFakeClock()
	s, _ := Open("", clk.Now)
	defer s.Close()
	s.Create("search", nil)

	j1, err := s.ClaimNext("w1", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	old := j1.Lease.Token

	// w1 goes silent; its lease expires and the sweep re-queues the job.
	clk.Advance(2 * time.Minute)
	requeued, cancelled, _ := s.SweepExpiredLeases()
	if len(requeued) != 1 || len(cancelled) != 0 {
		t.Fatalf("sweep: requeued %d cancelled %d", len(requeued), len(cancelled))
	}
	if requeued[0].State != Queued || requeued[0].Lease != nil {
		t.Fatalf("sweep left %+v", requeued[0])
	}

	// w2 claims it; the fencing token moved past w1's.
	j2, err := s.ClaimNext("w2", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Lease.Token <= old {
		t.Fatalf("token did not advance: %d -> %d", old, j2.Lease.Token)
	}
	if j2.Attempts != 2 {
		t.Errorf("attempts %d after failover, want 2", j2.Attempts)
	}

	// The partitioned w1 comes back: every write path is refused.
	if _, err := s.Renew(j2.ID, old, time.Minute); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale renew: %v", err)
	}
	if _, err := s.CommitUpdate(j2.ID, old, Payload{}, payload(`{"cp":1}`)); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale checkpoint: %v", err)
	}
	if _, err := s.Complete(j2.ID, old, Done, payload(`{"cycles":1}`), ""); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale complete: %v", err)
	}
	if _, err := s.Release(j2.ID, old, false); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale release: %v", err)
	}
	// The current owner is untouched by the stale attempts.
	got, _ := s.Get(j2.ID)
	if got.State != Running || got.Lease.Owner != "w2" {
		t.Errorf("stale writes disturbed the job: %+v", got)
	}
	// An expired-but-unswept lease is just as dead: writes under it fail
	// even before any sweep runs.
	clk.Advance(2 * time.Minute)
	if _, err := s.CommitUpdate(j2.ID, j2.Lease.Token, Payload{}, payload(`{"cp":2}`)); !errors.Is(err, ErrStaleLease) {
		t.Errorf("write under expired lease: %v", err)
	}
}

func TestClaimNextOrdersOldestFirstAndSkipsCancelRequested(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	defer s.Close()
	a, _ := s.Create("search", nil)
	b, _ := s.Create("search", nil)
	c, _ := s.Create("search", nil)
	if _, err := s.RequestCancel(a.ID); err != nil {
		t.Fatal(err)
	}

	j1, err := s.ClaimNext("w", time.Hour)
	if err != nil || j1.ID != b.ID {
		t.Fatalf("first claim %v, %v; want %s", j1, err, b.ID)
	}
	j2, err := s.ClaimNext("w", time.Hour)
	if err != nil || j2.ID != c.ID {
		t.Fatalf("second claim %v, %v; want %s", j2, err, c.ID)
	}
	if _, err := s.ClaimNext("w", time.Hour); !errors.Is(err, ErrNoQueuedJob) {
		t.Errorf("claim from empty queue: %v", err)
	}
}

func TestSweepFinalizesCancelRequestedExpiredLease(t *testing.T) {
	clk := newFakeClock()
	s, _ := Open("", clk.Now)
	defer s.Close()
	s.Create("search", nil)
	j, _ := s.ClaimNext("w1", time.Minute)
	if _, err := s.RequestCancel(j.ID); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	requeued, cancelled, _ := s.SweepExpiredLeases()
	if len(requeued) != 0 || len(cancelled) != 1 {
		t.Fatalf("sweep: requeued %d cancelled %d", len(requeued), len(cancelled))
	}
	got := cancelled[0]
	if got.State != Cancelled || got.Lease != nil || got.FinishedAt.IsZero() {
		t.Errorf("sweep-cancelled job %+v", got)
	}
}

func TestReleaseKeepsCheckpointForNextClaimant(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	defer s.Close()
	s.Create("search", nil)
	j, _ := s.ClaimNext("w1", time.Hour)
	if _, err := s.CommitUpdate(j.ID, j.Lease.Token, Payload{}, payload(`{"next_gen":4}`)); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Release(j.ID, j.Lease.Token, false)
	if err != nil {
		t.Fatal(err)
	}
	if rel.State != Queued || rel.Lease != nil || string(rel.Checkpoint) != `{"next_gen":4}` {
		t.Fatalf("release gave %+v", rel)
	}
	if rel.Attempts != 1 {
		t.Errorf("attempts %d after release, want 1", rel.Attempts)
	}

	j2, err := s.ClaimNext("w2", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Attempts != 2 || string(j2.Checkpoint) != `{"next_gen":4}` {
		t.Errorf("re-claim got %+v", j2)
	}
	// decAttempt compensates a claim that never ran.
	rel2, err := s.Release(j2.ID, j2.Lease.Token, true)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Attempts != 1 {
		t.Errorf("attempts %d after compensated release, want 1", rel2.Attempts)
	}
}

// TestReleaseFinalizesCancelRequested: a job flagged for cancellation and
// then released (a draining worker handing it back) is finalized as
// Cancelled. Re-queued with its flag it would never be claimed again.
func TestReleaseFinalizesCancelRequested(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	defer s.Close()
	s.Create("search", nil)
	j, _ := s.ClaimNext("w1", time.Hour)
	if _, err := s.RequestCancel(j.ID); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Release(j.ID, j.Lease.Token, false)
	if err != nil {
		t.Fatal(err)
	}
	if rel.State != Cancelled || rel.Lease != nil || rel.FinishedAt.IsZero() || rel.Error != ErrCancelled.Error() {
		t.Errorf("released flagged job %+v, want it cancelled", rel)
	}
}

// TestRecoveryFinalizesCancelRequested: a flagged job whose run died with
// the process is finalized as Cancelled on reopen, not re-queued.
func TestRecoveryFinalizesCancelRequested(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	s.Create("search", nil)
	j, _ := s.ClaimNext("local", 0)
	if _, err := s.RequestCancel(j.ID); err != nil {
		t.Fatal(err)
	}

	// Crash: reopen the same dir without Close.
	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ := s2.Get(j.ID)
	if got.State != Cancelled || got.Lease != nil || got.FinishedAt.IsZero() {
		t.Errorf("recovered flagged job %+v, want it cancelled", got)
	}
}

// TestRecoveryRespectsLiveRemoteLeases pins the crash-recovery split: a
// coordinator restart must not steal jobs from fleet workers that are
// still out there heartbeating, while process-local (zero-expiry) leases
// and expired remote leases die with the crash and re-queue.
func TestRecoveryRespectsLiveRemoteLeases(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	s.Create("search", nil) // claimed remotely, lease stays live
	s.Create("search", nil) // claimed remotely, lease expires
	s.Create("search", nil) // claimed locally (zero TTL)

	live, _ := s.ClaimNext("remote-live", time.Hour)
	dead, _ := s.ClaimNext("remote-dead", time.Minute)
	local, _ := s.ClaimNext("local", 0)
	clk.Advance(5 * time.Minute) // past remote-dead's TTL, inside remote-live's

	// Crash: reopen the same dir without Close.
	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	gotLive, _ := s2.Get(live.ID)
	if gotLive.State != Running || gotLive.Lease == nil || gotLive.Lease.Owner != "remote-live" {
		t.Errorf("live remote lease not preserved: %+v", gotLive)
	}
	gotDead, _ := s2.Get(dead.ID)
	if gotDead.State != Queued || gotDead.Lease != nil {
		t.Errorf("expired remote lease not re-queued: %+v", gotDead)
	}
	gotLocal, _ := s2.Get(local.ID)
	if gotLocal.State != Queued || gotLocal.Lease != nil {
		t.Errorf("process-local lease survived the process: %+v", gotLocal)
	}

	// The fencing counter persisted: a new claim's token is strictly above
	// every token granted before the crash.
	j, err := s2.ClaimNext("w2", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if j.Lease.Token <= local.Lease.Token {
		t.Errorf("token %d not above pre-crash %d", j.Lease.Token, local.Lease.Token)
	}
	// ...and the live remote worker can still renew against the recovered
	// store.
	if _, err := s2.Renew(live.ID, live.Lease.Token, time.Hour); err != nil {
		t.Errorf("surviving worker's renew failed: %v", err)
	}
}

func TestRetentionSweepEvictsOldestTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	finish := func() string {
		j, _ := s.Create("search", nil)
		c, _ := s.ClaimNext("w", time.Hour)
		s.Complete(j.ID, c.Lease.Token, Done, Payload{}, "")
		return j.ID
	}
	old1 := finish()
	old2 := finish()
	clk.Advance(3 * time.Hour)
	fresh := finish()
	running, _ := s.Create("search", nil)
	s.ClaimNext("w", time.Hour)

	removed := s.SweepRetention(time.Hour)
	if len(removed) != 2 || removed[0] != old1 || removed[1] != old2 {
		t.Fatalf("removed %v, want [%s %s] oldest-first", removed, old1, old2)
	}
	if _, ok := s.Get(old1); ok {
		t.Error("evicted job still readable")
	}
	if _, ok := s.Get(fresh); !ok {
		t.Error("fresh terminal job evicted")
	}
	if _, ok := s.Get(running.ID); !ok {
		t.Error("running job evicted")
	}
	if got := s.SweepRetention(0); got != nil {
		t.Errorf("zero horizon evicted %v", got)
	}

	// Tombstones are durable: the deletion survives reopen.
	s.Close()
	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(old1); ok {
		t.Error("evicted job resurrected by reopen")
	}
	if _, ok := s2.Get(fresh); !ok {
		t.Error("kept job lost across reopen")
	}
}

// TestRetentionTombstoneSurvivesRotation drives the append counter to the
// snapshot boundary so the tombstone append itself triggers a log
// rotation, then reopens: the snapshot must not resurrect the evicted job.
func TestRetentionTombstoneSurvivesRotation(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	victim, _ := s.Create("search", nil)
	c, _ := s.ClaimNext("w", time.Hour)
	s.Complete(victim.ID, c.Lease.Token, Done, Payload{}, "")
	keeper, _ := s.Create("search", nil)
	kc, _ := s.ClaimNext("w", 0)

	clk.Advance(3 * time.Hour)
	// Park the log one append short of rotation.
	for s.appends < snapshotEvery-1 {
		if _, err := s.CommitUpdate(keeper.ID, kc.Lease.Token, payload(`{}`), Payload{}); err != nil {
			t.Fatal(err)
		}
	}
	if removed := s.SweepRetention(time.Hour); len(removed) != 1 {
		t.Fatalf("sweep removed %v", removed)
	}
	if s.appends != 0 {
		t.Fatalf("tombstone append did not rotate (appends=%d)", s.appends)
	}
	s.Close()

	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(victim.ID); ok {
		t.Error("rotation resurrected the tombstoned job")
	}
	if _, ok := s2.Get(keeper.ID); !ok {
		t.Error("keeper lost across rotation")
	}
}

// TestStoreCompactionRacesInFlightAppends hammers CommitUpdate from
// several goroutines across multiple snapshot rotations (run under -race),
// then reopens and checks every job kept its final write.
func TestStoreCompactionRacesInFlightAppends(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const updates = 2 * snapshotEvery // ~8 rotations across all writers
	ids := make([]string, writers)
	tokens := make([]uint64, writers)
	for i := range ids {
		if _, err := s.Create("search", nil); err != nil {
			t.Fatal(err)
		}
		c, err := s.ClaimNext("local", 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i], tokens[i] = c.ID, c.Lease.Token
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 1; n <= updates; n++ {
				p := payload(fmt.Sprintf(`{"n":%d}`, n))
				if _, err := s.CommitUpdate(ids[i], tokens[i], p, Payload{}); err != nil {
					t.Errorf("update %s: %v", ids[i], err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	s.Close()

	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	want := fmt.Sprintf(`{"n":%d}`, updates)
	for _, id := range ids {
		j, ok := s2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across racing compaction", id)
		}
		if string(j.Progress) != want {
			t.Errorf("job %s progress %s, want %s", id, j.Progress, want)
		}
	}
}

// TestManagerEventHistoryCompaction floods one job's event log past the
// retention cap and checks replay semantics: a reader from before the
// retained window starts at the oldest retained event, one pointing past
// the end of a closed log reads nothing and finds the log closed, and a
// view of the log keeps its events while later appends compact it.
func TestManagerEventHistoryCompaction(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	defer s.Close()
	m, err := NewManager(s, Config{Workers: -1, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		return Payload{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	j, _ := s.Create("search", nil) // the create is event 1
	total := maxEventHistory + 37
	for i := 1; i < total; i++ {
		m.emit(j)
	}

	evs, _ := m.Events(j.ID, 0)
	if want := total - maxEventHistory + 1; len(evs) == 0 || evs[0].Seq != want {
		t.Errorf("replay starts at %+v, want seq %d (oldest retained)", evs[:min(1, len(evs))], want)
	}
	if len(evs) != maxEventHistory {
		t.Errorf("replayed %d events, want %d", len(evs), maxEventHistory)
	}
	if cap(evs) != len(evs) {
		t.Errorf("a view of %d events has capacity %d: a reader's append would write into the log", len(evs), cap(evs))
	}

	// The view read above holds the same events while the log grows and
	// compacts again.
	for range maxEventHistory {
		m.emit(j)
	}
	for i, ev := range evs {
		if want := total - maxEventHistory + 1 + i; ev.Seq != want {
			t.Fatalf("view element %d turned into seq %d after later appends, want %d", i, ev.Seq, want)
		}
	}

	// Terminal job + replay pointer past the end: nothing, and closed.
	done := j.Clone()
	done.State = Done
	m.emit(done)
	if evs, next := m.Events(j.ID, total+maxEventHistory+100); len(evs) != 0 || next != nil {
		t.Errorf("past-end read on a closed log: %d events, open %v; want none, closed", len(evs), next != nil)
	}
}

// TestCancelQueuedLeavesClaimedJob: a cancel that reaches the store after
// a claim leaves the claimed job's state, lease and attempts as they were
// and returns that snapshot; a job still queued is cancelled.
func TestCancelQueuedLeavesClaimedJob(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	defer s.Close()
	j, _ := s.Create("search", nil)
	claimed, err := s.ClaimNext("w", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.CancelQueued(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := s.Get(j.ID)
	for _, c := range []*Job{got, stored} {
		if c.State != Running || c.Lease == nil || *c.Lease != *claimed.Lease || c.Attempts != 1 || c.Error != "" {
			t.Fatalf("claimed job after cancel %+v (lease %+v); want running under %+v on attempt 1", c, c.Lease, claimed.Lease)
		}
	}

	q, _ := s.Create("search", nil)
	if c, err := s.CancelQueued(q.ID); err != nil || c.State != Cancelled || c.Error != ErrCancelled.Error() || c.FinishedAt.IsZero() {
		t.Fatalf("queued job after cancel %+v, %v; want cancelled", c, err)
	}
	if _, err := s.CancelQueued("j99999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel of an unknown job: %v, want ErrUnknownJob", err)
	}
}

// TestStoreCommitsAreEvents: every committed change to a job reaches its
// event log in commit order, the claim-then-release path included, except
// a lease renewal and a repeated cancel request, which commit nothing new
// a client sees; the terminal commit closes the log and the retention
// tombstone drops it.
func TestStoreCommitsAreEvents(t *testing.T) {
	clk := newFakeClock()
	s, _ := Open("", clk.Now)
	defer s.Close()
	m, err := NewManager(s, Config{Workers: -1, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		return Payload{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	j, _ := s.Create("search", nil)
	c, _ := s.ClaimNext("w", time.Minute)
	s.Renew(j.ID, c.Lease.Token, time.Minute)
	s.CommitUpdate(j.ID, c.Lease.Token, payload(`{"g":1}`), Payload{})
	s.Release(j.ID, c.Lease.Token, true)
	c, _ = s.ClaimNext("w", time.Minute)
	s.Renew(j.ID, c.Lease.Token, time.Minute)
	s.RequestCancel(j.ID)
	s.RequestCancel(j.ID)
	s.Complete(j.ID, c.Lease.Token, Cancelled, Payload{}, ErrCancelled.Error())

	var got []string
	evs, next := m.Events(j.ID, 0)
	for _, ev := range evs {
		got = append(got, fmt.Sprintf("%d:%s/%d/%s/%v", ev.Seq, ev.Job.State, ev.Job.Attempts, ev.Job.Progress, ev.Job.CancelRequested))
	}
	if next != nil {
		t.Error("the terminal commit left the event log open")
	}
	want := []string{
		"1:queued/0//false", "2:running/1//false", "3:running/1/{\"g\":1}/false", "4:queued/0/{\"g\":1}/false",
		"5:running/1/{\"g\":1}/false", "6:running/1/{\"g\":1}/true", "7:cancelled/1/{\"g\":1}/true",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("events\n%q\nwant\n%q", got, want)
	}

	clk.Advance(2 * time.Hour)
	if removed := s.SweepRetention(time.Hour); len(removed) != 1 {
		t.Fatalf("retention removed %v, want one job", removed)
	}
	m.evmu.Lock()
	_, kept := m.events[j.ID]
	m.evmu.Unlock()
	if kept {
		t.Error("the tombstone left the job's event log behind")
	}
	if evs, next := m.Events(j.ID, 0); len(evs) != 0 || next != nil {
		t.Errorf("a deleted job's stream: %d events, open %v; want none, closed", len(evs), next != nil)
	}
}
