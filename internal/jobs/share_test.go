package jobs

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
)

// bytesPerCall reports the fewest heap bytes one call of f allocated,
// over several batches of calls, so an allocation another goroutine made
// meanwhile cannot inflate the figure.
func bytesPerCall(f func()) uint64 {
	const batches, calls = 20, 10
	var ms runtime.MemStats
	best := uint64(math.MaxUint64)
	for b := 0; b < batches; b++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&ms)
		if n := (ms.TotalAlloc - before) / calls; n < best {
			best = n
		}
	}
	return best
}

// TestSnapshotBytesIndependentOfPayloadSize: Store.Get and
// Manager.Subscribe share a job's payloads instead of copying them, so a
// job holding a 64-KB checkpoint costs them no more bytes than one
// holding a 1-KB checkpoint.
func TestSnapshotBytesIndependentOfPayloadSize(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	defer s.Close()
	m, err := NewManager(s, Config{Workers: -1, Runner: func(ctx context.Context, j *Job, upd func(p, c Payload)) (Payload, error) {
		return Payload{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain(context.Background())
	holding := func(size int) string {
		j, err := m.Submit("search", []byte(`{"w":1}`))
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.ClaimNext("w", 0)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := Marshal(map[string]string{"pop": strings.Repeat("x", size)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CommitUpdate(j.ID, c.Lease.Token, payload(`{"generation":1}`), cp); err != nil {
			t.Fatal(err)
		}
		return j.ID
	}
	small, large := holding(1<<10), holding(64<<10)
	for _, c := range []struct {
		name string
		call func(id string)
	}{
		{"Store.Get", func(id string) { s.Get(id) }},
		{"Manager.Subscribe", func(id string) {
			_, stop := m.Subscribe(id, 0)
			stop()
		}},
	} {
		b1 := bytesPerCall(func() { c.call(small) })
		b64 := bytesPerCall(func() { c.call(large) })
		if b64 > b1 {
			t.Errorf("%s allocates %d bytes on a job with a 64-KB checkpoint, %d with a 1-KB one", c.name, b64, b1)
		}
	}
}

// TestSnapshotAppendDoesNotAlias: a snapshot's payloads share the store's
// bytes, capacity-capped, so appending to one copies: the store's bytes,
// the bytes past them in its slice, and every other snapshot stay as they
// were. The store's checkpoint here has spare capacity, which an
// uncapped snapshot would append into.
func TestSnapshotAppendDoesNotAlias(t *testing.T) {
	s, _ := Open("", newFakeClock().Now)
	defer s.Close()
	j, err := s.Create("search", []byte(`{"w":1}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.ClaimNext("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	text := `{"next_gen":1}`
	spare := append(make([]byte, 0, 4*len(text)), text...)
	committed, err := s.CommitUpdate(j.ID, c.Lease.Token, Payload{}, Payload{raw: spare})
	if err != nil {
		t.Fatal(err)
	}
	stored := s.jobs[j.ID].Checkpoint
	backing := string(stored[:cap(stored)])

	first, _ := s.Get(j.ID)
	a := append(first.Checkpoint, 'A')
	b := append(committed.Checkpoint, 'B')
	next, _ := s.Get(j.ID)
	n := append(next.Checkpoint, 'N')
	if string(a) != text+"A" || string(b) != text+"B" || string(n) != text+"N" {
		t.Errorf("appends to snapshots clobbered each other: %q %q %q", a, b, n)
	}
	if got := string(stored[:cap(stored)]); got != backing {
		t.Errorf("an append to a snapshot wrote into the store's slice: %q, was %q", got, backing)
	}
	if after, _ := s.Get(j.ID); !bytes.Equal(after.Checkpoint, []byte(text)) {
		t.Errorf("next snapshot's checkpoint %q, want %q", after.Checkpoint, text)
	}
}
