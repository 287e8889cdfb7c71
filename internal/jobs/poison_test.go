package jobs

import (
	"strings"
	"testing"
	"time"
)

// TestPoisonQuarantineAfterMaxAttempts drives a job through repeated
// lease-expiry failovers until its attempt budget runs out: the sweep
// must quarantine it in state Poisoned with the failure trail recording
// each failover and the final verdict.
func TestPoisonQuarantineAfterMaxAttempts(t *testing.T) {
	clk := newFakeClock()
	s, err := Open("", clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateWith(CreateSpec{Kind: "k", Request: []byte(`{}`), Tenant: "t", Class: "bulk", MaxAttempts: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}

	for attempt := 1; attempt <= 3; attempt++ {
		c, err := s.ClaimNext("w"+string(rune('0'+attempt)), time.Minute)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if c.ID != j.ID || c.Attempts != attempt {
			t.Fatalf("attempt %d: claimed %+v", attempt, c)
		}
		clk.Advance(2 * time.Minute)
		requeued, cancelled, poisoned := s.SweepExpiredLeases()
		if attempt < 3 {
			if len(requeued) != 1 || len(poisoned) != 0 {
				t.Fatalf("attempt %d: requeued %d poisoned %d", attempt, len(requeued), len(poisoned))
			}
			continue
		}
		if len(requeued) != 0 || len(cancelled) != 0 || len(poisoned) != 1 {
			t.Fatalf("final sweep: %d/%d/%d", len(requeued), len(cancelled), len(poisoned))
		}
		p := poisoned[0]
		if p.State != Poisoned || !p.State.Terminal() || p.Lease != nil {
			t.Fatalf("poisoned job: %+v", p)
		}
		if len(p.Trail) != 4 { // 3 failovers + verdict
			t.Fatalf("trail: %q", p.Trail)
		}
		if !strings.Contains(p.Trail[3], "poisoned after 3 attempts") {
			t.Fatalf("verdict line: %q", p.Trail[3])
		}
	}

	if _, err := s.ClaimNext("w9", time.Minute); err != ErrNoQueuedJob {
		t.Fatalf("poisoned job claimable: %v", err)
	}
	if n := s.PoisonCount(); n != 1 {
		t.Fatalf("poison count %d", n)
	}
}

// TestPoisonOnCrashRecovery covers the other failover path: a store
// reopened with a running job whose budget is spent quarantines it
// during recovery instead of re-queuing it.
func TestPoisonOnCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateWith(CreateSpec{Kind: "k", Request: []byte(`{}`), MaxAttempts: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ClaimNext(localOwner, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // process "crashes" holding a local lease
		t.Fatal(err)
	}

	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get(j.ID)
	if !ok || got.State != Poisoned {
		t.Fatalf("after recovery: %+v ok=%v", got, ok)
	}
	if len(got.Trail) != 2 || !strings.Contains(got.Trail[0], "interrupted by restart") {
		t.Fatalf("trail: %q", got.Trail)
	}
}

// TestClaimNextHonorsPicker checks the dequeue hook: the picker sees
// ID-ordered queued and running snapshots, its choice wins, and an empty
// choice turns into ErrNoQueuedJob.
func TestClaimNextHonorsPicker(t *testing.T) {
	clk := newFakeClock()
	s, err := Open("", clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	var j2 *Job
	for i := 0; i < 3; i++ {
		j, err := s.Create("k", []byte(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			j2 = j
		}
	}

	picked := ""
	s.SetPicker(func(queued, running []*Job) string {
		for i := 1; i < len(queued); i++ {
			if queued[i-1].ID >= queued[i].ID {
				t.Fatalf("queued not ID-ordered: %s, %s", queued[i-1].ID, queued[i].ID)
			}
		}
		return picked
	})

	if _, err := s.ClaimNext("w", 0); err != ErrNoQueuedJob {
		t.Fatalf("decline: %v", err)
	}
	picked = j2.ID
	c, err := s.ClaimNext("w", 0)
	if err != nil || c.ID != j2.ID {
		t.Fatalf("picker choice: %+v, %v", c, err)
	}
	// A picker naming an unclaimable job is a hard error, not a silent
	// FIFO fallback.
	picked = j2.ID // now running
	if _, err := s.ClaimNext("w", 0); err == nil || err == ErrNoQueuedJob {
		t.Fatalf("unclaimable choice: %v", err)
	}
}
