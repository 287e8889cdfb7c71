package jobs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"
)

// The store's only writer is appendJob: log lines and snapshot records
// are the bytes json.Marshal(job) would produce, emitted without
// reflection. The raw payloads (Request, Progress, Checkpoint, Result) are
// spliced verbatim, which is sound because every payload is canonical by
// the time the store holds it: valid, compact and HTML-escaped, exactly
// what json.Marshal makes of a json.RawMessage. Request and replayed
// payloads pass through canonicalRaw; progress, checkpoints and results
// arrive as a Payload, which is canonical by construction.

// Payload is a progress, checkpoint or result payload in the store's
// canonical form. Its bytes are immutable: the store keeps them as they
// are and shares them with every snapshot and event of the job, so nobody
// may write into them. The zero Payload is absent. A Payload has exactly
// two constructors: Marshal, for values encoded in this process, and
// ParsePayload, for raw JSON from outside it.
type Payload struct{ raw json.RawMessage }

// Marshal encodes v with json.Marshal and wraps the bytes unchanged:
// json.Marshal's output is already canonical, so it is not scanned again.
func Marshal(v any) (Payload, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return Payload{}, err
	}
	return Payload{raw: b}, nil
}

// ParsePayload validates raw JSON from outside the process (a fleet
// peer's request body, say) and returns it canonicalised (canonicalRaw);
// name labels the error. An empty p gives the zero Payload.
func ParsePayload(name string, p json.RawMessage) (Payload, error) {
	b, err := canonicalRaw(name, p)
	return Payload{raw: b}, err
}

// Bytes returns the payload's bytes, nil for the zero Payload. They are
// shared, not copied: read them, never write into them. Their capacity is
// capped at their length, so an append copies instead of writing past them.
func (p Payload) Bytes() json.RawMessage { return share(p.raw) }

// share returns b capacity-capped at its length, so a holder's append
// always copies and never writes into the bytes past b that the slice's
// owner may hold or reuse.
func share(b json.RawMessage) json.RawMessage { return b[:len(b):len(b)] }

// canonicalRaw validates the raw JSON payload the store is given as field
// name and returns a private copy in json.Marshal's canonical form. An
// empty payload comes back nil, which the store treats as absent. The
// copy is made here so callers store the result without copying again.
func canonicalRaw(name string, p json.RawMessage) (json.RawMessage, error) {
	if len(p) == 0 {
		return nil, nil
	}
	// Marshaling a RawMessage validates, compacts and escapes it, which
	// defines the canonical form, and always returns a fresh slice.
	b, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("jobs: invalid %s JSON: %w", name, err)
	}
	return b, nil
}

// canonicalPayloads canonicalises a job's four raw payloads in place.
func canonicalPayloads(j *Job) (err error) {
	if j.Request, err = canonicalRaw("request", j.Request); err != nil {
		return err
	}
	if j.Progress, err = canonicalRaw("progress", j.Progress); err != nil {
		return err
	}
	if j.Checkpoint, err = canonicalRaw("checkpoint", j.Checkpoint); err != nil {
		return err
	}
	j.Result, err = canonicalRaw("result", j.Result)
	return err
}

// appendJob appends json.Marshal(j)'s bytes to dst. Its raw payloads must
// be canonical (canonicalRaw). The only error is a timestamp JSON cannot
// represent, the same one json.Marshal reports.
func appendJob(dst []byte, j *Job) ([]byte, error) {
	var err error
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, j.ID)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, j.Kind)
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, string(j.State))
	dst = append(dst, `,"request":`...)
	if len(j.Request) == 0 { // never empty but nil in the store (canonicalRaw)
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, j.Request...)
	}
	if j.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = appendString(dst, j.Tenant)
	}
	if j.Class != "" {
		dst = append(dst, `,"class":`...)
		dst = appendString(dst, j.Class)
	}
	// time.Time is a struct, so omitempty never drops it.
	dst = append(dst, `,"created_at":`...)
	if dst, err = appendTime(dst, j.CreatedAt); err != nil {
		return dst, err
	}
	dst = append(dst, `,"started_at":`...)
	if dst, err = appendTime(dst, j.StartedAt); err != nil {
		return dst, err
	}
	dst = append(dst, `,"finished_at":`...)
	if dst, err = appendTime(dst, j.FinishedAt); err != nil {
		return dst, err
	}
	if j.Attempts != 0 {
		dst = append(dst, `,"attempts":`...)
		dst = strconv.AppendInt(dst, int64(j.Attempts), 10)
	}
	if j.MaxAttempts != 0 {
		dst = append(dst, `,"max_attempts":`...)
		dst = strconv.AppendInt(dst, int64(j.MaxAttempts), 10)
	}
	if len(j.Trail) > 0 {
		dst = append(dst, `,"trail":[`...)
		for i, line := range j.Trail {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, line)
		}
		dst = append(dst, ']')
	}
	if l := j.Lease; l != nil {
		dst = append(dst, `,"lease":{"owner":`...)
		dst = appendString(dst, l.Owner)
		dst = append(dst, `,"token":`...)
		dst = strconv.AppendUint(dst, l.Token, 10)
		dst = append(dst, `,"expires":`...)
		if dst, err = appendTime(dst, l.Expires); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	if j.CancelRequested {
		dst = append(dst, `,"cancel_requested":true`...)
	}
	if j.Tombstone {
		dst = append(dst, `,"tombstone":true`...)
	}
	if len(j.Progress) > 0 {
		dst = append(dst, `,"progress":`...)
		dst = append(dst, j.Progress...)
	}
	if len(j.Checkpoint) > 0 {
		dst = append(dst, `,"checkpoint":`...)
		dst = append(dst, j.Checkpoint...)
	}
	dst = append(dst, `,"checkpoint_at":`...)
	if dst, err = appendTime(dst, j.CheckpointAt); err != nil {
		return dst, err
	}
	if len(j.Result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, j.Result...)
	}
	if j.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, j.Error)
	}
	return append(dst, '}'), nil
}

// writeSnapshotTo streams the snapshot payload, the bytes of
// json.Marshal(snapshotFile{seq, leaseSeq, all}), through w. scratch is
// reused for each record and returned grown; n counts the bytes written.
func writeSnapshotTo(w *bufio.Writer, scratch []byte, seq, leaseSeq uint64, all []*Job) (buf []byte, n int, err error) {
	buf = append(scratch[:0], `{"seq":`...)
	buf = strconv.AppendUint(buf, seq, 10)
	if leaseSeq != 0 {
		buf = append(buf, `,"lease_seq":`...)
		buf = strconv.AppendUint(buf, leaseSeq, 10)
	}
	buf = append(buf, `,"jobs":[`...)
	for i, j := range all {
		if i > 0 {
			buf = append(buf, ',')
		}
		if buf, err = appendJob(buf, j); err != nil {
			return buf, n, err
		}
		if _, err = w.Write(buf); err != nil {
			return buf, n, err
		}
		n += len(buf)
		buf = buf[:0]
	}
	buf = append(buf, "]}"...)
	if _, err = w.Write(buf); err != nil {
		return buf, n, err
	}
	return buf, n + len(buf), nil
}

// appendTime appends t as time.Time.MarshalJSON does: quoted RFC 3339
// with nanoseconds, refusing years outside [0,9999] and zone offsets of
// 24 hours or more.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	b := dst[n0+1:]
	switch {
	case b[len("9999")] != '-':
		return dst[:n0], errors.New("jobs: Time.MarshalJSON: year outside of range [0,9999]")
	case b[len(b)-1] != 'Z':
		c := b[len(b)-len("Z07:00")]
		hours := 10*(b[len(b)-len("07:00")]-'0') + (b[len(b)-len("7:00")] - '0')
		if ('0' <= c && c <= '9') || hours >= 24 {
			return dst[:n0], errors.New("jobs: Time.MarshalJSON: timezone hour outside of range [0,23]")
		}
	}
	return append(dst, '"'), nil
}

// appendString appends s as a JSON string exactly as encoding/json does
// with HTML escaping on: <, > and & become \u003c, \u003e and \u0026,
// control bytes take their short or \u00XX escapes, invalid UTF-8
// becomes \ufffd and U+2028/U+2029 are escaped.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
