package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

// waitState waits on the job's event stream until the job reaches want or
// the deadline passes. The store commits each state before its event is
// emitted, so a read after an event sees that state or a later one.
func waitState(t *testing.T, m *Manager, id string, want State) *Job {
	t.Helper()
	deadline := time.After(5 * time.Second)
	ch, stop := m.Subscribe(id, 0)
	defer func() { stop() }()
	seq := 0
	for {
		j, ok := m.Get(id)
		if ok && j.State == want {
			return j
		}
		select {
		case <-deadline:
			t.Fatalf("job %s never reached %s (now %+v)", id, want, j)
		case ev, open := <-ch:
			switch {
			case open:
				seq = ev.Seq
			case ok && j.State.Terminal():
				// The stream ended with the job: no later state can come.
				t.Fatalf("job %s never reached %s (now %+v)", id, want, j)
			default:
				// Dropped for falling behind: resume after the last event.
				ch, stop = m.Subscribe(id, seq)
			}
		}
	}
}

func TestManagerRunsJobs(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	m, err := NewManager(s, Config{Workers: 2, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		upd(payload(`{"generation":1}`), payload(`{"cp":1}`))
		return payload(`{"echo":` + string(j.Request) + `}`), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	j, err := m.Submit("search", json.RawMessage(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, Done)
	if string(got.Result) != `{"echo":{"x":1}}` {
		t.Errorf("result %s", got.Result)
	}
	if got.Attempts != 1 || string(got.Progress) != `{"generation":1}` || got.CheckpointAt.IsZero() {
		t.Errorf("job bookkeeping wrong: %+v", got)
	}
	if got.FinishedAt.Before(got.StartedAt) {
		t.Errorf("finished %v before started %v", got.FinishedAt, got.StartedAt)
	}
}

// TestManagerWorkersRunConcurrently: a pool of four workers runs four jobs
// at once. Each runner reports its arrival and then holds its job until
// the test releases them all, so a pool that runs fewer jobs at a time
// never delivers the fourth arrival and the test fails at its deadline
// instead of hanging. perfbench's explore workload measures what the
// concurrency buys (ops_per_s, jobs.queue_wait_p50_ms).
func TestManagerWorkersRunConcurrently(t *testing.T) {
	const workers = 4
	s, _ := Open("", newFakeClock().Now)
	arrived := make(chan struct{}, workers)
	release := make(chan struct{})
	m, err := NewManager(s, Config{Workers: workers, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		arrived <- struct{}{}
		select {
		case <-release:
			return payload(`{}`), nil
		case <-ctx.Done():
			return Payload{}, context.Cause(ctx)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	for i := 0; i < workers; i++ {
		if _, err := m.Submit("search", nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for n := 0; n < workers; n++ {
		select {
		case <-arrived:
		case <-deadline:
			t.Fatalf("only %d of %d jobs ran at once", n, workers)
		}
	}
	close(release)
}

func TestManagerFailureAndPanic(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	m, err := NewManager(s, Config{Workers: 1, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		if string(j.Request) == `"boom"` {
			panic("kaboom")
		}
		return Payload{}, errors.New("no feasible mapping")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	bad, _ := m.Submit("search", json.RawMessage(`"err"`))
	j := waitState(t, m, bad.ID, Failed)
	if j.Error != "no feasible mapping" {
		t.Errorf("error %q", j.Error)
	}
	pan, _ := m.Submit("search", json.RawMessage(`"boom"`))
	j = waitState(t, m, pan.ID, Failed)
	if j.Error == "" {
		t.Error("panic did not surface as job error")
	}
	// The worker survived the panic and still runs jobs.
	ok3, _ := m.Submit("search", json.RawMessage(`"err"`))
	waitState(t, m, ok3.ID, Failed)
}

func TestManagerCancelRunningAndQueued(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	started := make(chan string, 8)
	m, err := NewManager(s, Config{Workers: 1, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		started <- j.ID
		<-ctx.Done()
		return Payload{}, context.Cause(ctx)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	run, _ := m.Submit("search", nil)
	queued, _ := m.Submit("search", nil)
	<-started // `run` occupies the only worker; `queued` still queued

	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	j := waitState(t, m, queued.ID, Cancelled)
	if j.Attempts != 0 {
		t.Errorf("queued-cancelled job has attempts %d", j.Attempts)
	}

	if _, err := m.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, run.ID, Cancelled)

	// Idempotent on terminal jobs.
	if _, err := m.Cancel(run.ID); err != nil {
		t.Errorf("cancel of terminal job: %v", err)
	}
	if _, err := m.Cancel("j99999999"); err == nil {
		t.Error("cancel of unknown job succeeded")
	}
}

func TestManagerDrainRequeuesWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	runner := func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		upd(payload(`{"generation":2}`), payload(`{"next_gen":2}`))
		close(started)
		<-ctx.Done()
		return Payload{}, context.Cause(ctx)
	}
	m, err := NewManager(s, Config{Workers: 1, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := m.Submit("search", json.RawMessage(`{"w":"x"}`))
	<-started

	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(j.ID)
	if got.State != Queued {
		t.Fatalf("drained job state %s, want queued", got.State)
	}
	if string(got.Checkpoint) != `{"next_gen":2}` {
		t.Errorf("drained job lost checkpoint: %q", got.Checkpoint)
	}
	if got.Attempts != 1 {
		t.Errorf("attempts %d, want 1", got.Attempts)
	}
	if _, err := m.Submit("search", nil); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: %v", err)
	}
	s.Close()

	// Restart: the new manager resumes the re-queued job to completion.
	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m2, err := NewManager(s2, Config{Workers: 1, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		if string(j.Checkpoint) != `{"next_gen":2}` {
			return Payload{}, fmt.Errorf("resumed without checkpoint: %q", j.Checkpoint)
		}
		return payload(`{"resumed":true}`), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Drain(context.Background())
	got = waitState(t, m2, j.ID, Done)
	if got.Attempts != 2 {
		t.Errorf("attempts %d after resume, want 2", got.Attempts)
	}
	if string(got.Result) != `{"resumed":true}` {
		t.Errorf("result %s", got.Result)
	}
}

// TestSubscribeTerminalAfterRestart: a job that finished before a restart
// has no events in the new process; subscribing to it yields its stored
// snapshot and a closed channel instead of an open, empty stream.
func TestSubscribeTerminalAfterRestart(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	runner := func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		return payload(`{"ok":true}`), nil
	}
	m, err := NewManager(s, Config{Workers: 1, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := m.Submit("search", nil)
	waitState(t, m, j.ID, Done)
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m2, err := NewManager(s2, Config{Workers: -1, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Drain(context.Background())
	ch, stop := m2.Subscribe(j.ID, 0)
	defer stop()
	ev, open := <-ch
	if !open || ev.Seq != 1 || ev.Job.State != Done || string(ev.Job.Result) != `{"ok":true}` {
		t.Fatalf("first event %+v (open %v), want the stored done snapshot as seq 1", ev, open)
	}
	if _, open := <-ch; open {
		t.Fatal("stream of a job finished before the restart stayed open")
	}
	// A resubscription after the snapshot replays nothing and is closed.
	ch2, stop2 := m2.Subscribe(j.ID, 1)
	defer stop2()
	if _, open := <-ch2; open {
		t.Error("subscribe after the snapshot replayed something")
	}
}

func TestManagerEventsReplayAndLive(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	release := make(chan struct{})
	m, err := NewManager(s, Config{Workers: 1, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		upd(payload(`{"generation":1}`), Payload{})
		<-release
		upd(payload(`{"generation":2}`), Payload{})
		return payload(`{}`), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	j, _ := m.Submit("search", nil)
	waitState(t, m, j.ID, Running)

	ch, stop := m.Subscribe(j.ID, 0)
	defer stop()
	close(release)

	var states []State
	var lastSeq int
	for ev := range ch {
		if ev.Seq <= lastSeq {
			t.Fatalf("seq went backwards: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		states = append(states, ev.Job.State)
		if ev.Job.State.Terminal() {
			break
		}
	}
	if len(states) == 0 || states[len(states)-1] != Done {
		t.Fatalf("event stream states %v, want trailing done", states)
	}

	// A late subscriber replays history and the channel closes (job is
	// terminal).
	waitState(t, m, j.ID, Done)
	ch2, stop2 := m.Subscribe(j.ID, 0)
	defer stop2()
	n := 0
	for ev := range ch2 {
		n++
		lastSeq = ev.Seq
	}
	if n == 0 {
		t.Fatal("late subscriber got no replay")
	}
	// Resume-from-seq skips history already seen.
	ch3, stop3 := m.Subscribe(j.ID, lastSeq)
	defer stop3()
	if _, open := <-ch3; open {
		t.Error("subscribe after last seq replayed something")
	}
}

func TestManagerStats(t *testing.T) {
	clk := newFakeClock()
	s, _ := Open("", clk.Now)
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	m, err := NewManager(s, Config{Workers: 1, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		upd(Payload{}, payload(`{}`))
		started <- struct{}{}
		select {
		case <-block:
			return payload(`{}`), nil
		case <-ctx.Done():
			return Payload{}, context.Cause(ctx)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())

	a, _ := m.Submit("search", nil)
	b, _ := m.Submit("search", nil)
	<-started
	clk.Advance(30 * time.Second)

	st := m.Stats()
	if st.Running != 1 || st.QueueDepth != 1 {
		t.Errorf("stats %+v, want 1 running + 1 queued", st)
	}
	if st.CheckpointAge < 30*time.Second {
		t.Errorf("checkpoint age %v, want ≥ 30s", st.CheckpointAge)
	}
	close(block)
	waitState(t, m, a.ID, Done)
	<-started
	waitState(t, m, b.ID, Done)
	if st := m.Stats(); st.Done != 2 || st.Running != 0 || st.CheckpointAge != 0 {
		t.Errorf("final stats %+v", st)
	}
}

// TestEventSnapshotsSharedWithoutRace: an event carries the very snapshot
// the store made for it, so an SSE-style subscriber reading every field of
// every event while the runner commits, and the submitter reading the job
// Submit returned, must never see a write to it. Run under -race.
func TestEventSnapshotsSharedWithoutRace(t *testing.T) {
	s, _ := Open(t.TempDir(), newFakeClock().Now)
	defer s.Close()
	start := make(chan struct{})
	m, err := NewManager(s, Config{Workers: 1, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		<-start
		for g := 0; g < 200; g++ {
			if _, err := json.Marshal(j); err != nil {
				return Payload{}, err
			}
			upd(payload(fmt.Sprintf(`{"generation":%d}`, g)), payload(fmt.Sprintf(`{"next_gen":%d,"s":"<&>"}`, g)))
		}
		return payload(`{"cycles":1}`), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	j, err := m.Submit("search", json.RawMessage(`{"w":1}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int)
	go func() {
		seen, last := 0, 0
		for {
			ch, stop := m.Subscribe(j.ID, last)
			for ev := range ch {
				if _, err := json.Marshal(ev.Job); err != nil {
					t.Error(err)
				}
				seen, last = seen+1, ev.Seq
				if ev.Job.State.Terminal() {
					stop()
					done <- seen
					return
				}
			}
			stop() // fell behind: resume after the last event seen
		}
	}()
	close(start)
	for {
		if _, err := json.Marshal(j); err != nil {
			t.Fatal(err)
		}
		if got, _ := m.Get(j.ID); got.State.Terminal() {
			break
		}
	}
	if seen := <-done; seen < 2 {
		t.Errorf("subscriber saw %d events", seen)
	}
}

// TestCancelBetweenClaimAndRunEndsRun: the running event is published
// when a worker's claim commits, before the worker registers the run, so
// a client reacting to it can cancel in between and only flag the job.
// The run must end cancelled whether the flag is committed before the
// worker registers it (runOne reads the flag) or after (observe sees the
// commit). The runner returns only when its context is cancelled.
func TestCancelBetweenClaimAndRunEndsRun(t *testing.T) {
	for _, flagFirst := range []bool{true, false} {
		s, _ := Open("", newFakeClock().Now)
		started := make(chan struct{}, 1)
		m, err := NewManager(s, Config{Workers: -1, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
			started <- struct{}{}
			<-ctx.Done()
			return Payload{}, context.Cause(ctx)
		}})
		if err != nil {
			t.Fatal(err)
		}
		j, _ := m.Submit("search", nil)
		claimed, err := s.ClaimNext(localOwner, 0) // a worker's claim
		if err != nil {
			t.Fatal(err)
		}
		if flagFirst {
			if c, err := m.Cancel(j.ID); err != nil || !c.CancelRequested {
				t.Fatalf("cancel before the run registered: %+v, %v; want the job flagged", c, err)
			}
		}
		ran := make(chan struct{})
		go func() { m.runOne(claimed); close(ran) }()
		if !flagFirst {
			<-started
			if _, err := s.RequestCancel(j.ID); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatalf("flag committed first %v: the run ignored the cancel request", flagFirst)
		}
		if got, _ := s.Get(j.ID); got.State != Cancelled {
			t.Errorf("flag committed first %v: job ended %s, want cancelled", flagFirst, got.State)
		}
		m.Drain(context.Background())
		s.Close()
	}
}

// TestDrainAfterCancelFlagFinalizesJob: a cancel that lands between a
// worker's claim and its run only flags the job; if a drain then wins the
// race in runOne, the released job must end Cancelled rather than sit in
// the queue flagged, where no claim would take it again.
func TestDrainAfterCancelFlagFinalizesJob(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	defer s.Close()
	m, err := NewManager(s, Config{Workers: -1, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		t.Error("runner started during a drain")
		return Payload{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := m.Submit("search", nil)
	claimed, err := s.ClaimNext(localOwner, 0) // a worker's claim
	if err != nil {
		t.Fatal(err)
	}
	if c, err := m.Cancel(j.ID); err != nil || !c.CancelRequested {
		t.Fatalf("cancel before the run registered: %+v, %v; want the job flagged", c, err)
	}
	m.Drain(context.Background())
	m.runOne(claimed)
	if got, _ := s.Get(j.ID); got.State != Cancelled {
		t.Errorf("job ended %s, want cancelled", got.State)
	}
}
