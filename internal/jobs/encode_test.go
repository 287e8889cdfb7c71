package jobs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// stringPieces are the fragments random Go strings are made of: plain
// text, every byte encoding/json escapes (control bytes, quote, backslash,
// <>&), U+2028/U+2029, valid multi-byte runes and invalid UTF-8.
var stringPieces = []string{
	"abc", "j00000042", " ", "<", ">", "&", `"`, `\`, "/", "\x7f",
	"\x00", "\x01", "\x08", "\t", "\n", "\x0b", "\x0c", "\r", "\x1f",
	"\xe2\x80\xa8", "\xe2\x80\xa9", "\xc3\xa9", "\xf0\x9f\x98\x80",
	"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xf8\x88\x80\x80\x80",
}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(stringPieces[rng.Intn(len(stringPieces))])
	}
	return b.String()
}

// rawStringPieces are the fragments of strings inside random raw JSON:
// everything JSON allows unescaped in a string (invalid UTF-8 included),
// plus escape sequences.
var rawStringPieces = []string{
	"abc", " ", "<", ">", "&", "\x7f", "\xe2\x80\xa8", "\xe2\x80\xa9",
	"\xc3\xa9", "\xff", "\xc3", `\n`, `\"`, `\\`, `\/`, `\u0041`, `\u003c`, `\u2028`,
}

// writeRawJSON writes a random JSON value with random insignificant
// whitespace around every token.
func writeRawJSON(b *strings.Builder, rng *rand.Rand, depth int) {
	space := func() {
		b.WriteString([]string{"", "", " ", "\n\t ", "\r\n"}[rng.Intn(5)])
	}
	str := func() {
		b.WriteByte('"')
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(rawStringPieces[rng.Intn(len(rawStringPieces))])
		}
		b.WriteByte('"')
	}
	space()
	kind := rng.Intn(6)
	if depth <= 0 {
		kind = rng.Intn(3)
	}
	switch kind {
	case 0:
		str()
	case 1:
		b.WriteString([]string{"0", "-1", "1.5e-7", "1E+21", "3.25", "-0.0", "12345678901234567890"}[rng.Intn(7)])
	case 2:
		b.WriteString([]string{"true", "false", "null"}[rng.Intn(3)])
	case 3, 4:
		b.WriteByte('{')
		for i, n := 0, rng.Intn(4); i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			space()
			str()
			space()
			b.WriteByte(':')
			writeRawJSON(b, rng, depth-1)
		}
		space()
		b.WriteByte('}')
	default:
		b.WriteByte('[')
		for i, n := 0, rng.Intn(4); i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			writeRawJSON(b, rng, depth-1)
		}
		space()
		b.WriteByte(']')
	}
	space()
}

// randRaw returns a raw payload as the store holds it: nil, empty, or a
// random JSON value in canonical form. It also checks that canonicalRaw
// makes of the random text exactly what json.Marshal makes of it.
func randRaw(t *testing.T, rng *rand.Rand) json.RawMessage {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return json.RawMessage{}
	}
	var b strings.Builder
	writeRawJSON(&b, rng, 3)
	text := json.RawMessage(b.String())
	want, err := json.Marshal(text)
	if err != nil {
		t.Fatalf("generated invalid JSON %q: %v", text, err)
	}
	got, err := canonicalRaw("test", text)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("canonicalRaw(%q) = %q, %v; json.Marshal gives %q", text, got, err, want)
	}
	return got
}

var zones = []*time.Location{
	time.UTC, time.FixedZone("IST", 5*3600+1800), time.FixedZone("PST", -8*3600),
	time.FixedZone("", 23*3600+59*60),
}

func randTime(rng *rand.Rand) time.Time {
	switch rng.Intn(4) {
	case 0:
		return time.Time{}
	case 1:
		return time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)
	}
	t := time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)*int64(rng.Intn(2)))
	return t.In(zones[rng.Intn(len(zones))])
}

// randJob returns a random job in the store's invariant form: its raw
// payloads nil, empty or canonical (a Request is never empty, since
// canonicalRaw turns an empty one into nil).
func randJob(t *testing.T, rng *rand.Rand) *Job {
	j := &Job{
		ID:              randString(rng),
		Kind:            randString(rng),
		State:           State(randString(rng)),
		Request:         randRaw(t, rng),
		CreatedAt:       randTime(rng),
		StartedAt:       randTime(rng),
		FinishedAt:      randTime(rng),
		CancelRequested: rng.Intn(2) == 0,
		Tombstone:       rng.Intn(4) == 0,
		Progress:        randRaw(t, rng),
		Checkpoint:      randRaw(t, rng),
		CheckpointAt:    randTime(rng),
		Result:          randRaw(t, rng),
	}
	if len(j.Request) == 0 {
		j.Request = nil
	}
	if rng.Intn(2) == 0 {
		j.Tenant, j.Class, j.Error = randString(rng), randString(rng), randString(rng)
	}
	if rng.Intn(2) == 0 {
		j.Attempts, j.MaxAttempts = rng.Intn(5)-1, rng.Intn(1<<20)
	}
	switch rng.Intn(3) {
	case 0:
		j.Trail = []string{}
	case 1:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			j.Trail = append(j.Trail, randString(rng))
		}
	}
	if rng.Intn(2) == 0 {
		j.Lease = &Lease{Owner: randString(rng), Token: rng.Uint64(), Expires: randTime(rng)}
	}
	return j
}

// TestAppendJobMatchesMarshal: the store's encoder writes exactly the
// bytes json.Marshal writes for random jobs, and refuses the timestamps
// json.Marshal refuses.
func TestAppendJobMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var buf []byte
	for i := 0; i < 5000; i++ {
		j := randJob(t, rng)
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", j, err)
		}
		buf, err = appendJob(buf[:0], j)
		if err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("job %d: appendJob gives\n%q, %v\njson.Marshal gives\n%q", i, buf, err, want)
		}
	}
	for _, bad := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
	} {
		for _, j := range []*Job{{CreatedAt: bad}, {Lease: &Lease{Expires: bad}}} {
			if _, err := json.Marshal(j); err == nil {
				t.Fatalf("json.Marshal accepts %v", bad)
			}
			if _, err := appendJob(nil, j); err == nil {
				t.Errorf("appendJob accepts %v; json.Marshal refuses it", bad)
			}
		}
	}
}

// TestCanonicalRawRejectsInvalid: canonicalRaw refuses what json.Marshal
// refuses in a RawMessage, and keeps an already canonical payload as is.
func TestCanonicalRawRejectsInvalid(t *testing.T) {
	for _, bad := range []string{`{"a":`, `{"a" 1}`, `[1,]`, `"x` + "\n" + `"`, `01`, `{} {}`, ` `, `-`, `1.`, `1e`, `tru`, `nul`, `"\x"`, `"\u12"`, `[`, `{"a":1,}`} {
		if _, err := canonicalRaw("test", json.RawMessage(bad)); err == nil {
			t.Errorf("canonicalRaw(%q) accepted", bad)
		}
	}
	p := json.RawMessage(`{"a":[1,"b c"],"d":null}`)
	if got, err := canonicalRaw("test", p); err != nil || !bytes.Equal(got, p) {
		t.Errorf("canonicalRaw(%s) = %s, %v", p, got, err)
	}
}

// TestIsCanonicalSound: isCanonical, the one-pass check that lets a
// payload skip json.Marshal, says yes only to valid JSON that json.Marshal
// leaves unchanged, over random and randomly mutated texts, and says yes
// to every json.Marshal output it meets (so canonical payloads take the
// fast path).
func TestIsCanonicalSound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mutations := []byte{' ', '"', '\\', '{', '}', '[', ']', ',', ':', '0', '-', '.', 'e', '<', 0x01, 0xe2, 0x80, 0xa8, 0xff}
	fast := 0
	for i := 0; i < 100_000; i++ {
		var b strings.Builder
		writeRawJSON(&b, rng, 3)
		q := []byte(b.String())
		if i%2 == 1 {
			if c, err := json.Marshal(json.RawMessage(q)); err == nil {
				q = c
			}
		}
		for n := rng.Intn(3); n > 0 && len(q) > 0; n-- {
			k := rng.Intn(len(q))
			switch rng.Intn(3) {
			case 0:
				q = append(q[:k], q[k+1:]...)
			case 1:
				q = append(q[:k], append([]byte{mutations[rng.Intn(len(mutations))]}, q[k:]...)...)
			default:
				q = q[:k]
			}
		}
		want, err := json.Marshal(json.RawMessage(q))
		canonical := err == nil && bytes.Equal(want, q)
		if got := isCanonical(q); got != canonical {
			t.Fatalf("isCanonical(%q) = %v; json.Marshal gives %q, %v", q, got, want, err)
		}
		if canonical {
			fast++
		}
	}
	if fast == 0 {
		t.Fatal("no canonical payload generated")
	}
	deep := strings.Repeat("[", maxFastDepth+1) + strings.Repeat("]", maxFastDepth+1)
	if got, err := canonicalRaw("test", json.RawMessage(deep)); err != nil || string(got) != deep {
		t.Errorf("a payload nested past the fast check is refused: %v", err)
	}
}

// TestSnapshotMatchesMarshal: a streamed snapshot is the bytes of
// json.Marshal(snapshotFile{...}) over the same jobs, large enough to span
// several writer buffers, and the store records its size.
func TestSnapshotMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3000} {
		s, err := Open(t.TempDir(), newFakeClock().Now)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]*Job, n)
		for i := range all {
			j := randJob(t, rng)
			j.ID = "j" + strconv.Itoa(100000+i)
			all[i] = j
			s.putLocked(j)
		}
		s.seq, s.leaseSeq = uint64(n), uint64(rng.Intn(2)*n)
		if err := s.writeSnapshot(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(snapshotFile{Seq: s.seq, LeaseSeq: s.leaseSeq, Jobs: all})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d jobs: snapshot differs from json.Marshal (%d vs %d bytes)", n, len(got), len(want))
		}
		if s.snapBytes != len(want) {
			t.Errorf("%d jobs: snapBytes %d, file %d", n, s.snapBytes, len(want))
		}
		s.Close()
	}
}

// parentClock replays the clock the parent-store fixture was written with.
type parentClock struct{ t time.Time }

func (c *parentClock) now() time.Time {
	c.t = c.t.Add(1234567891 * time.Nanosecond)
	return c.t
}

// TestParentStoreReopensByteIdentical: a store written by the
// encoding/json writer (testdata/parentstore: snapshot plus log, with
// HTML-special, control and invalid UTF-8 strings, spaced payloads,
// leases, trails, tombstones and a rotation) reopens into the snapshot
// that writer made of it, and the same later history appends the same
// log bytes.
func TestParentStoreReopensByteIdentical(t *testing.T) {
	src := filepath.Join("testdata", "parentstore")
	dir := t.TempDir()
	for _, name := range []string{snapshotName, logName} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	clk := &parentClock{t: time.Date(2026, 8, 6, 0, 0, 0, 123456789, time.UTC)}
	s, err := Open(dir, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	sameFile(t, filepath.Join(dir, snapshotName), filepath.Join(src, "reopened.json"))
	for i := 0; i < 3; i++ {
		j, err := s.ClaimNext("local", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CommitUpdate(j.ID, j.Lease.Token, json.RawMessage(`{"generation":1}`), json.RawMessage(`{"next_gen":1,"s":"<&>"}`)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Complete(j.ID, j.Lease.Token, Done, json.RawMessage(`{"cycles":7}`), ""); err != nil {
			t.Fatal(err)
		}
	}
	c, err := s.Create("search", json.RawMessage(`{"after":"reopen"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RequestCancel(c.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sameFile(t, filepath.Join(dir, logName), filepath.Join(src, "after.log"))
}

func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s differs from %s (%d vs %d bytes)", got, want, len(g), len(w))
	}
}

// TestInvalidPayloadLeavesJobUnchanged: an invalid request, progress,
// checkpoint or result fails its call with nothing changed in memory or on
// disk, a later valid write succeeds, and a reopen agrees with memory.
func TestInvalidPayloadLeavesJobUnchanged(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	bad := json.RawMessage(`{"a":`)
	if _, err := s.Create("search", bad); err == nil {
		t.Fatal("invalid request accepted")
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("a refused create left %d jobs", n)
	}
	j, err := s.Create("search", json.RawMessage(`{"w":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j00000001" {
		t.Errorf("first job after a refused create is %s, want j00000001", j.ID)
	}
	claimed, err := s.ClaimNext("local", 0)
	if err != nil {
		t.Fatal(err)
	}
	token := claimed.Lease.Token
	if _, err := s.CommitUpdate(j.ID, token, json.RawMessage(`{"g":1}`), json.RawMessage(`{"cp":1}`)); err != nil {
		t.Fatal(err)
	}
	before := encodeJob(t, s, j.ID)
	writes := map[string]func() error{
		"progress": func() error {
			_, err := s.CommitUpdate(j.ID, token, bad, nil)
			return err
		},
		"checkpoint": func() error {
			_, err := s.CommitUpdate(j.ID, token, json.RawMessage(`{"g":2}`), bad)
			return err
		},
		"result": func() error {
			_, err := s.Complete(j.ID, token, Done, bad, "")
			return err
		},
		"update": func() error {
			u, _ := s.Get(j.ID)
			u.Error, u.Result = "changed", bad
			return s.Update(u)
		},
	}
	for name, write := range writes {
		if err := write(); err == nil {
			t.Errorf("invalid %s accepted", name)
		}
		if got := encodeJob(t, s, j.ID); got != before {
			t.Errorf("refused %s changed the job:\n%s\nwas\n%s", name, got, before)
		}
	}
	if _, err := s.Complete(j.ID, token, Done, json.RawMessage(` {"cycles": 42} `), ""); err != nil {
		t.Fatalf("valid complete after refused writes: %v", err)
	}
	done := encodeJob(t, s, j.ID)
	if got, _ := s.Get(j.ID); got.State != Done || string(got.Result) != `{"cycles":42}` {
		t.Errorf("completed job %s result %s", got.State, got.Result)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := encodeJob(t, s2, j.ID); got != done {
		t.Errorf("reopened job\n%s\ndiffers from memory\n%s", got, done)
	}
}

func encodeJob(t *testing.T, s *Store, id string) string {
	t.Helper()
	j, ok := s.Get(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAppendLockedAllocs: once its scratch buffer has grown, a log append
// allocates nothing.
func TestAppendLockedAllocs(t *testing.T) {
	s, err := Open(t.TempDir(), newFakeClock().Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.Create("search", json.RawMessage(`{"workload":"attention:Bert-S"}`))
	if err != nil {
		t.Fatal(err)
	}
	claimed, err := s.ClaimNext("local", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CommitUpdate(c.ID, claimed.Lease.Token, json.RawMessage(`{"generation":3}`), benchCheckpoint()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[c.ID]
	s.appends = 0
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.appendLocked(j); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("appendLocked allocates %v objects per append, want 0", allocs)
	}
}

// benchCheckpoint is a canonical payload of a GA checkpoint's shape and
// size (population encodings, tuned statistics with factor maps, trace).
func benchCheckpoint() json.RawMessage {
	var b strings.Builder
	b.WriteString(`{"version":1,"next_gen":7,"generations":12,"population":[`)
	for i := 0; i < 16; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"target":[1,2,-1],"mem":[1,1,2],"binding":[0,1,0]}`)
	}
	b.WriteString(`],"tuned":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"encoding":{"target":[1,2,-1],"mem":[1,1,2],"binding":[0,1,0]},"cycles":` + strconv.Itoa(123456+i) + `.5,"factors":{"L1_k":4,"L1_m":8,"L2_h":2,"L2_m":16,"sp_c":4,"sp_s":2},"rounds":24}`)
	}
	b.WriteString(`],"trace":["+inf",1.5e-7,98765.25]}`)
	return json.RawMessage(b.String())
}

// BenchmarkStoreAppend times one lease-guarded checkpoint write of a
// GA-sized checkpoint on a durable store: payload validation, the log
// append and, every few hundred writes, a snapshot rotation.
func BenchmarkStoreAppend(b *testing.B) {
	s, err := Open(b.TempDir(), newFakeClock().Now)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 64; i++ {
		if _, err := s.Create("search", json.RawMessage(`{"workload":"attention:Bert-S","seed":`+strconv.Itoa(i)+`}`)); err != nil {
			b.Fatal(err)
		}
	}
	j, err := s.ClaimNext("local", 0)
	if err != nil {
		b.Fatal(err)
	}
	cp, prog := benchCheckpoint(), json.RawMessage(`{"generation":7,"generations":12,"best_cycles":123456.5}`)
	b.SetBytes(int64(len(cp)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CommitUpdate(j.ID, j.Lease.Token, prog, cp); err != nil {
			b.Fatal(err)
		}
	}
}
