package sched

import (
	"sync"

	"repro/internal/jobs"
)

// strideScale is the numerator of the stride computation. A class's
// stride is strideScale/weight, so higher weights advance virtual time
// more slowly and win more picks. 1<<20 keeps every division exact
// enough that relative shares match weights to well under one percent.
const strideScale = 1 << 20

// Config sizes a Scheduler.
type Config struct {
	// TenantMaxRunning caps one tenant's concurrently running jobs
	// across the local pool and all fleet claims. Zero means unlimited.
	TenantMaxRunning int
	// TenantMaxActive caps one tenant's active (queued + running) jobs
	// at admission time. Zero means unlimited.
	TenantMaxActive int
	// Seed feeds the deterministic tie-breaker used when two classes
	// carry equal virtual time.
	Seed int64
}

// Scheduler is the weighted-fair dequeue policy plus tenant accounting.
// Install Pick as the job store's Picker and call Admit from the
// submission path. All methods are safe for concurrent use.
type Scheduler struct {
	cfg Config

	mu sync.Mutex
	// pass is each class's virtual time; vt is the global virtual time —
	// the pass of the most recent pick — used to re-align a class that
	// was empty (it must not burn accumulated lag monopolizing the
	// queue, nor be punished for having been idle).
	pass map[Class]uint64
	vt   uint64

	// Counters for /metrics.
	picks          map[Class]uint64
	quotaDeferrals uint64
	quotaRejects   uint64
}

// New builds a scheduler from cfg.
func New(cfg Config) *Scheduler {
	return &Scheduler{
		cfg:   cfg,
		pass:  map[Class]uint64{},
		picks: map[Class]uint64{},
	}
}

// Pick implements jobs.Picker: stride scheduling over per-class virtual
// time, with per-tenant running quotas filtering candidates first. It
// returns the chosen job's ID, or "" when every queued job's tenant is
// at its running quota (the claim then reports an empty queue and the
// worker sleeps until something finishes).
//
// queued and running arrive in creation order from the store, so "first
// eligible job of the class" is "oldest" and the whole decision is a
// pure function of (config, accumulated virtual time, queue state).
func (s *Scheduler) Pick(queued, running []*jobs.Job) string {
	s.mu.Lock()
	defer s.mu.Unlock()

	var runningByTenant map[string]int
	if s.cfg.TenantMaxRunning > 0 {
		runningByTenant = make(map[string]int, len(running))
		for _, j := range running {
			runningByTenant[j.Tenant]++
		}
	}

	// Head of each class's FIFO among quota-eligible jobs.
	head := map[Class]*jobs.Job{}
	deferred := false
	for _, j := range queued {
		c := ClassOf(j.Class)
		if head[c] != nil {
			continue
		}
		if runningByTenant != nil && runningByTenant[j.Tenant] >= s.cfg.TenantMaxRunning {
			deferred = true
			continue
		}
		head[c] = j
	}
	if len(head) == 0 {
		if deferred {
			s.quotaDeferrals++
		}
		return ""
	}

	// Re-align classes that sat empty: without this, a class returning
	// after a quiet spell would hold a huge virtual-time deficit and
	// starve everyone else until it caught up.
	for c := range head {
		if s.pass[c] < s.vt {
			s.pass[c] = s.vt
		}
	}

	var best Class
	found := false
	for _, c := range classes { // fixed order: deterministic iteration
		if head[c] == nil {
			continue
		}
		if !found {
			best, found = c, true
			continue
		}
		switch {
		case s.pass[c] < s.pass[best]:
			best = c
		case s.pass[c] == s.pass[best] && tieHash(s.cfg.Seed, c) < tieHash(s.cfg.Seed, best):
			best = c
		}
	}

	s.vt = s.pass[best]
	s.pass[best] += strideScale / uint64(DefaultWeights[best])
	s.picks[best]++
	return head[best].ID
}

// Admit is the submission-time quota check, run by the store under its
// lock (see jobs.CreateWith) so it is atomic with the create. active is
// every non-terminal job; the check counts the submitting tenant's and
// refuses with a *QuotaError once TenantMaxActive is reached. Because
// tenant and class persist on the job records, the same check holds
// after a restart with no extra state.
func (s *Scheduler) Admit(tenant string) func(active []*jobs.Job) error {
	return func(active []*jobs.Job) error {
		if s.cfg.TenantMaxActive <= 0 {
			return nil
		}
		n := 0
		for _, j := range active {
			if j.Tenant == tenant {
				n++
			}
		}
		if n >= s.cfg.TenantMaxActive {
			s.mu.Lock()
			s.quotaRejects++
			s.mu.Unlock()
			return &QuotaError{Tenant: tenant, Limit: s.cfg.TenantMaxActive, Active: n}
		}
		return nil
	}
}

// Stats is the metrics snapshot of the scheduler.
type Stats struct {
	// Picks counts dequeues per class since start.
	Picks map[Class]uint64
	// QuotaDeferrals counts claims declined because every queued job's
	// tenant was at its running quota; QuotaRejects counts submissions
	// refused at admission.
	QuotaDeferrals uint64
	QuotaRejects   uint64
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := make(map[Class]uint64, len(s.picks))
	for c, n := range s.picks {
		p[c] = n
	}
	return Stats{Picks: p, QuotaDeferrals: s.quotaDeferrals, QuotaRejects: s.quotaRejects}
}
