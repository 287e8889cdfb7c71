package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
)

// stepClock is a clock that moves only when told to, so a reference model
// can predict every time the store reads.
type stepClock struct{ t time.Time }

func (c *stepClock) Now() time.Time { return c.t }

// openAtSeq opens a store under dir whose ID sequence resumes after seq.
func openAtSeq(t testing.TB, dir string, seq uint64, now func() time.Time) *Store {
	t.Helper()
	snap := fmt.Sprintf(`{"seq":%d,"jobs":[]}`, seq)
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, now)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func jobIDs(js []*Job) []string {
	ids := make([]string, len(js))
	for i, j := range js {
		ids[i] = j.ID
	}
	return ids
}

// TestClaimOrderSurvivesIDRollover pins creation order past j99999999,
// where the zero padding of job IDs runs out and string order would put
// j100000000 first.
func TestClaimOrderSurvivesIDRollover(t *testing.T) {
	dir := t.TempDir()
	clk := &stepClock{t: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)}
	s := openAtSeq(t, dir, 99999997, clk.Now)
	var created []string
	for i := 0; i < 4; i++ {
		j, err := s.Create("k", nil)
		if err != nil {
			t.Fatal(err)
		}
		created = append(created, j.ID)
	}
	if want := []string{"j99999998", "j99999999", "j100000000", "j100000001"}; !slices.Equal(created, want) {
		t.Fatalf("created %v, want %v", created, want)
	}

	// Admission sees active jobs in creation order.
	var admitted []string
	if _, err := s.CreateWith(CreateSpec{Kind: "k"}, func(active []*Job) error {
		admitted = jobIDs(active)
		return errors.New("refused")
	}); err == nil {
		t.Fatal("admit refusal ignored")
	}
	if !slices.Equal(admitted, created) {
		t.Errorf("admit saw %v, want %v", admitted, created)
	}

	// FIFO claims hand out the oldest job first, with remote leases so a
	// sweep can expire them below.
	for _, want := range created[:2] {
		c, err := s.ClaimNext("w", time.Second)
		if err != nil || c.ID != want {
			t.Fatalf("FIFO claim got %v (%v), want %s", c, err, want)
		}
	}
	// A picker sees queued and running jobs in creation order.
	var gotQ, gotR []string
	s.SetPicker(func(queued, running []*Job) string {
		gotQ, gotR = jobIDs(queued), jobIDs(running)
		return queued[0].ID
	})
	if c, err := s.ClaimNext("w", time.Second); err != nil || c.ID != created[2] {
		t.Fatalf("picker claim got %v (%v), want %s", c, err, created[2])
	}
	if !slices.Equal(gotQ, created[2:]) || !slices.Equal(gotR, created[:2]) {
		t.Errorf("picker saw queued %v running %v", gotQ, gotR)
	}
	s.SetPicker(nil)

	// The lease sweep reports expired jobs in creation order.
	clk.t = clk.t.Add(2 * time.Second)
	requeued, _, _ := s.SweepExpiredLeases()
	if got := jobIDs(requeued); !slices.Equal(got, created[:3]) {
		t.Errorf("sweep requeued %v, want %v", got, created[:3])
	}

	// Jobs finishing at the same instant retire in creation order.
	for range created {
		c, err := s.ClaimNext("w", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Complete(c.ID, c.Lease.Token, Done, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := jobIDs(s.List()); !slices.Equal(got, created) {
		t.Errorf("List %v, want %v", got, created)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The snapshot written at reopen keeps creation order too.
	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	b, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if got := jobIDs(snap.Jobs); !slices.Equal(got, created) {
		t.Errorf("snapshot holds %v, want %v", got, created)
	}
	clk.t = clk.t.Add(time.Hour)
	if got := s2.SweepRetention(time.Minute); !slices.Equal(got, created) {
		t.Errorf("retention removed %v, want %v", got, created)
	}
}

// modelPicker is a deterministic stand-in for the scheduler: the first
// interactive job whose tenant runs fewer than two jobs, else the first
// such job of any class, else decline.
func modelPicker(queued, running []*Job) string {
	busy := map[string]int{}
	for _, j := range running {
		busy[j.Tenant]++
	}
	first := ""
	for _, j := range queued {
		if busy[j.Tenant] >= 2 {
			continue
		}
		if j.Class == "interactive" {
			return j.ID
		}
		if first == "" {
			first = j.ID
		}
	}
	return first
}

// storeModel drives one store with random operations and checks the
// active index and the claim path against brute-force scans of s.jobs.
type storeModel struct {
	t         *testing.T
	rng       *rand.Rand
	dir       string
	clk       *stepClock
	s         *Store
	picker    bool
	pickerArg [2][]string // the last picker call's queued and running IDs
	pickerHit bool
}

// scan returns the jobs matching keep in numeric creation order, computed
// without the index or byCreation.
func (m *storeModel) scan(keep func(*Job) bool) []*Job {
	var out []*Job
	for _, j := range m.s.jobs {
		if keep(j) {
			out = append(out, j)
		}
	}
	slices.SortFunc(out, func(a, b *Job) int {
		na, _ := strconv.ParseUint(a.ID[1:], 10, 64)
		nb, _ := strconv.ParseUint(b.ID[1:], 10, 64)
		switch {
		case na < nb:
			return -1
		case na > nb:
			return 1
		}
		return 0
	})
	return out
}

// choose returns a random job matching keep, or nil.
func (m *storeModel) choose(keep func(*Job) bool) *Job {
	js := m.scan(keep)
	if len(js) == 0 {
		return nil
	}
	return js[m.rng.Intn(len(js))]
}

func (m *storeModel) setPicker() {
	if !m.picker {
		return
	}
	m.s.SetPicker(func(queued, running []*Job) string {
		m.pickerArg = [2][]string{jobIDs(queued), jobIDs(running)}
		m.pickerHit = true
		return modelPicker(queued, running)
	})
}

// checkIndex asserts the active index holds exactly the non-terminal jobs
// of s.jobs, by the same pointers.
func (m *storeModel) checkIndex(step int, op string) {
	m.t.Helper()
	want := m.scan(func(j *Job) bool { return !j.State.Terminal() })
	if len(want) != len(m.s.active) {
		m.t.Fatalf("step %d (%s): index holds %d jobs, scan finds %d", step, op, len(m.s.active), len(want))
	}
	for _, j := range want {
		if m.s.active[j.ID] != j {
			m.t.Fatalf("step %d (%s): index entry for %s is %p, store has %p", step, op, j.ID, m.s.active[j.ID], j)
		}
	}
}

// expectSweep predicts SweepExpiredLeases at the clock's current time.
func (m *storeModel) expectSweep() (requeued, cancelled, poisoned []*Job) {
	now := m.clk.Now()
	for _, j := range m.scan(func(j *Job) bool { return j.State == Running && j.Lease.Expired(now) }) {
		switch {
		case j.CancelRequested:
			cancelled = append(cancelled, j)
		case j.MaxAttempts > 0 && j.Attempts >= j.MaxAttempts:
			poisoned = append(poisoned, j)
		default:
			requeued = append(requeued, j)
		}
	}
	return requeued, cancelled, poisoned
}

func (m *storeModel) checkSweep(step int) {
	m.t.Helper()
	wr, wc, wp := m.expectSweep()
	gr, gc, gp := m.s.SweepExpiredLeases()
	for i, pair := range [][2][]*Job{{wr, gr}, {wc, gc}, {wp, gp}} {
		if w, g := jobIDs(pair[0]), jobIDs(pair[1]); !slices.Equal(w, g) {
			m.t.Fatalf("step %d: sweep list %d is %v, reference %v", step, i, g, w)
		}
	}
}

// checkClaim predicts ClaimNext (its sweep included), then claims.
func (m *storeModel) checkClaim(step int, ttl time.Duration) {
	m.t.Helper()
	wr, wc, wp := m.expectSweep()
	swept := map[*Job]bool{}
	for _, js := range [][]*Job{wr, wc, wp} {
		for _, j := range js {
			swept[j] = true
		}
	}
	queued := m.scan(func(j *Job) bool {
		return (j.State == Queued && !j.CancelRequested) || slices.Contains(wr, j)
	})
	running := m.scan(func(j *Job) bool { return j.State == Running && !swept[j] })
	want := ""
	if len(queued) > 0 {
		want = queued[0].ID
		if m.picker {
			want = modelPicker(queued, running)
		}
	}
	m.pickerHit = false
	got, err := m.s.ClaimNext(fmt.Sprintf("w%d", m.rng.Intn(3)), ttl)
	if want == "" {
		if !errors.Is(err, ErrNoQueuedJob) {
			m.t.Fatalf("step %d: claim got %v (%v), reference claims nothing", step, got, err)
		}
	} else if err != nil || got.ID != want {
		m.t.Fatalf("step %d: claim got %v (%v), reference %s", step, got, err, want)
	}
	if m.picker && len(queued) > 0 {
		if !m.pickerHit || !slices.Equal(m.pickerArg[0], jobIDs(queued)) || !slices.Equal(m.pickerArg[1], jobIDs(running)) {
			m.t.Fatalf("step %d: picker saw %v, reference queued %v running %v", step, m.pickerArg, jobIDs(queued), jobIDs(running))
		}
	}
}

// checkLeaseWrite runs one lease-guarded write against a random running
// job and checks it is refused exactly when the lease has expired.
func (m *storeModel) checkLeaseWrite(step int, op string, write func(id string, token uint64) error) {
	m.t.Helper()
	j := m.choose(func(j *Job) bool { return j.State == Running })
	if j == nil {
		return
	}
	stale := j.Lease.Expired(m.clk.Now())
	err := write(j.ID, j.Lease.Token)
	if stale != errors.Is(err, ErrStaleLease) || (!stale && err != nil) {
		m.t.Fatalf("step %d: %s on %s (stale %v): %v", step, op, j.ID, stale, err)
	}
}

// reopen reopens the store's directory, after a clean close or a crash
// that tore the log's last line, and checks recovery against a
// prediction: running jobs without a live remote lease are cancelled when
// flagged for cancellation, poisoned once out of attempts, and re-queued
// otherwise.
func (m *storeModel) reopen(step int, crash bool) {
	m.t.Helper()
	now := m.clk.Now()
	want := map[string]State{}
	for id, j := range m.s.jobs {
		st := j.State
		if st == Running && (j.Lease.Expires.IsZero() || !now.Before(j.Lease.Expires)) {
			switch {
			case j.CancelRequested:
				st = Cancelled
			case j.MaxAttempts > 0 && j.Attempts >= j.MaxAttempts:
				st = Poisoned
			default:
				st = Queued
			}
		}
		want[id] = st
	}
	if crash {
		if err := m.s.log.Close(); err != nil {
			m.t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(m.dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			m.t.Fatal(err)
		}
		if _, err := f.WriteString(`{"id":"j0000`); err != nil {
			m.t.Fatal(err)
		}
		f.Close()
	} else if err := m.s.Close(); err != nil {
		m.t.Fatal(err)
	}
	s, err := Open(m.dir, m.clk.Now)
	if err != nil {
		m.t.Fatal(err)
	}
	m.s = s
	m.setPicker()
	if len(s.jobs) != len(want) {
		m.t.Fatalf("step %d: reopen holds %d jobs, want %d", step, len(s.jobs), len(want))
	}
	for id, st := range want {
		if j := s.jobs[id]; j == nil || j.State != st {
			m.t.Fatalf("step %d: after reopen %s is %v, want %s", step, id, j, st)
		}
	}
}

// TestActiveIndexMatchesFullScan is the model-based check of the active
// index: random operation sequences, some of them crossing the
// j99999999 ID rollover, with and without a picker. After every step the
// index must equal a brute-force filter of the store, and every claim and
// lease sweep must match a brute-force reference.
func TestActiveIndexMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, picker := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/picker=%v", seed, picker), func(t *testing.T) {
				runStoreModel(t, seed, picker, 400)
			})
		}
	}
}

func runStoreModel(t *testing.T, seed int64, picker bool, steps int) {
	m := &storeModel{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		dir:    t.TempDir(),
		clk:    &stepClock{t: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)},
		picker: picker,
	}
	startSeq := uint64(0)
	if seed%2 == 1 {
		startSeq = 99999999 - 20 // the run crosses the ID rollover
	}
	m.s = openAtSeq(t, m.dir, startSeq, m.clk.Now)
	defer func() { m.s.Close() }()
	m.setPicker()
	tenants := []string{"a", "b", "c"}
	classes := []string{"interactive", "batch", "bulk"}
	spec := func() CreateSpec {
		return CreateSpec{
			Kind:        "search",
			Request:     json.RawMessage(`{}`),
			Tenant:      tenants[m.rng.Intn(len(tenants))],
			Class:       classes[m.rng.Intn(len(classes))],
			MaxAttempts: m.rng.Intn(3),
		}
	}
	terminal := []State{Done, Failed, Cancelled, Poisoned}
	const quota = 4

	for step := 0; step < steps; step++ {
		m.clk.t = m.clk.t.Add(time.Duration(m.rng.Intn(3)) * time.Second)
		var op string
		switch r := m.rng.Intn(100); {
		case r < 14:
			op = "create"
			if _, err := m.s.CreateWith(spec(), nil); err != nil {
				t.Fatal(err)
			}
		case r < 22:
			op = "create-admit"
			sp := spec()
			active := m.scan(func(j *Job) bool { return !j.State.Terminal() })
			held := 0
			for _, j := range active {
				if j.Tenant == sp.Tenant {
					held++
				}
			}
			var saw []string
			_, err := m.s.CreateWith(sp, func(act []*Job) error {
				saw = jobIDs(act)
				n := 0
				for _, j := range act {
					if j.Tenant == sp.Tenant {
						n++
					}
				}
				if n >= quota {
					return errors.New("over quota")
				}
				return nil
			})
			if !slices.Equal(saw, jobIDs(active)) {
				t.Fatalf("step %d: admit saw %v, reference %v", step, saw, jobIDs(active))
			}
			if (err != nil) != (held >= quota) {
				t.Fatalf("step %d: admit error %v with %d active for tenant", step, err, held)
			}
		case r < 34:
			op = "claim-local"
			m.checkClaim(step, 0)
		case r < 44:
			op = "claim-remote"
			m.checkClaim(step, time.Duration(1+m.rng.Intn(10))*time.Second)
		case r < 54:
			op = "commit"
			m.checkLeaseWrite(step, op, func(id string, tok uint64) error {
				_, err := m.s.CommitUpdate(id, tok, json.RawMessage(`{"p":1}`), json.RawMessage(`{"c":1}`))
				return err
			})
		case r < 64:
			op = "complete"
			st := terminal[m.rng.Intn(len(terminal))]
			m.checkLeaseWrite(step, op, func(id string, tok uint64) error {
				_, err := m.s.Complete(id, tok, st, json.RawMessage(`{}`), "")
				return err
			})
		case r < 68:
			op = "release"
			dec := m.rng.Intn(2) == 0
			m.checkLeaseWrite(step, op, func(id string, tok uint64) error {
				_, err := m.s.Release(id, tok, dec)
				return err
			})
		case r < 72:
			op = "cancel-queued"
			if j := m.choose(func(j *Job) bool { return j.State == Queued }); j != nil {
				if _, err := m.s.CancelQueued(j.ID); err != nil {
					t.Fatal(err)
				}
			}
		case r < 77:
			op = "request-cancel"
			if j := m.choose(func(j *Job) bool { return true }); j != nil {
				if _, err := m.s.RequestCancel(j.ID); err != nil {
					t.Fatal(err)
				}
			}
		case r < 87:
			op = "sweep-leases"
			m.clk.t = m.clk.t.Add(time.Duration(m.rng.Intn(12)) * time.Second)
			m.checkSweep(step)
		case r < 92:
			op = "sweep-retention"
			horizon := time.Duration(1+m.rng.Intn(60)) * time.Second
			cutoff := m.clk.Now().Add(-horizon)
			want := m.scan(func(j *Job) bool {
				return j.State.Terminal() && !j.FinishedAt.IsZero() && j.FinishedAt.Before(cutoff)
			})
			slices.SortStableFunc(want, func(a, b *Job) int { return a.FinishedAt.Compare(b.FinishedAt) })
			if got := m.s.SweepRetention(horizon); !slices.Equal(got, jobIDs(want)) {
				t.Fatalf("step %d: retention removed %v, reference %v", step, got, jobIDs(want))
			}
		case r < 96:
			op = "reopen"
			m.reopen(step, false)
		default:
			op = "crash"
			m.reopen(step, true)
		}
		m.checkIndex(step, op)
	}
}

// claimCycle is one job's whole life on a store: create, claim, complete.
// It returns the job's ID.
func claimCycle(tb testing.TB, s *Store) string {
	j, err := s.Create("search", json.RawMessage(`{"workload":"x"}`))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := s.ClaimNext("w", 0)
	if err != nil || c.ID != j.ID {
		tb.Fatalf("claim got %v (%v), want %s", c, err, j.ID)
	}
	if _, err := s.Complete(c.ID, c.Lease.Token, Done, json.RawMessage(`{"cycles":1}`), ""); err != nil {
		tb.Fatal(err)
	}
	return c.ID
}

// storeWithHistory returns a memory-only store holding terminal finished
// jobs, its ID sequence past the small integers fmt formats without
// allocating.
func storeWithHistory(tb testing.TB, terminal int) *Store {
	s, err := Open("", newFakeClock().Now)
	if err != nil {
		tb.Fatal(err)
	}
	s.seq = 1000
	for i := 0; i < terminal; i++ {
		claimCycle(tb, s)
	}
	return s
}

// fewestAllocs is the fewest allocations any of n single calls of fn
// makes. Under the race detector sync.Pool drops pooled buffers at random,
// so one call can allocate more than the next; the minimum is stable, and
// a change that adds an allocation to every call still raises it.
func fewestAllocs(n int, fn func()) float64 {
	least := math.Inf(1)
	for range n {
		least = min(least, testing.AllocsPerRun(1, fn))
	}
	return least
}

// cycleCost reports the fewest allocations one claimCycle makes and the
// mean bytes it allocates.
func cycleCost(t *testing.T, s *Store) (allocs float64, bytes uint64) {
	const runs = 250
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// AllocsPerRun(1, ...) runs its function twice: a warm-up, then the
	// measured call.
	allocs = fewestAllocs(runs, func() { claimCycle(t, s) })
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / (2 * runs)
}

// TestClaimAllocsIndependentOfHistory checks that a job's lifecycle costs
// the same whether the store holds no finished jobs or thousands: claims,
// sweeps and admission walk only the active jobs.
func TestClaimAllocsIndependentOfHistory(t *testing.T) {
	a0, b0 := cycleCost(t, storeWithHistory(t, 0))
	a1, b1 := cycleCost(t, storeWithHistory(t, 5000))
	if a0 != a1 {
		t.Errorf("create→claim→complete: %v allocs with no history, %v with 5000 terminal jobs", a0, a1)
	}
	// Bytes vary a little as the job map grows; a scan over the history
	// would add tens of kilobytes per cycle.
	if b1 > b0+1024 {
		t.Errorf("create→claim→complete: %d B with no history, %d B with 5000 terminal jobs", b0, b1)
	}
}

// TestStatsAllocsIndependentOfHistory checks that a metrics scrape counts
// stored jobs without copying them.
func TestStatsAllocsIndependentOfHistory(t *testing.T) {
	idle := func(ctx context.Context, j *Job, upd func(p, c json.RawMessage)) (json.RawMessage, error) {
		return nil, nil
	}
	var allocs [2]float64
	for i, n := range []int{0, 5000} {
		s := storeWithHistory(t, n)
		for k := 0; k < 3; k++ {
			if _, err := s.CreateWith(CreateSpec{Kind: "search", Tenant: fmt.Sprint("t", k), Class: "bulk"}, nil); err != nil {
				t.Fatal(err)
			}
		}
		m, err := NewManager(s, Config{Workers: -1, Runner: idle})
		if err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Done != n || st.QueueDepth != 3 {
			t.Fatalf("stats %+v, want %d done and 3 queued", st, n)
		}
		allocs[i] = fewestAllocs(50, func() { m.Stats() })
		m.Drain(context.Background())
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Stats: %v allocs with no history, %v with 5000 terminal jobs", allocs[0], allocs[1])
	}
}

// BenchmarkStoreClaim times one create→claim→complete cycle on a
// memory-only store that holds a fixed number of finished jobs; each
// cycle's job is dropped again so the history stays at that size.
func BenchmarkStoreClaim(b *testing.B) {
	for _, n := range []int{0, 1000, 10000} {
		b.Run(fmt.Sprintf("terminal=%d", n), func(b *testing.B) {
			s := storeWithHistory(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := claimCycle(b, s)
				s.mu.Lock()
				s.deleteLocked(id)
				s.mu.Unlock()
			}
		})
	}
}
