package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"qkbfly"
)

// streamWriteTimeout bounds a single NDJSON record write.
const streamWriteTimeout = 15 * time.Second

// streamWriter writes NDJSON records with a per-record write deadline
// and a flush after every record. Every streaming response (/facts,
// /query, /deltas, /analytics?follow=) goes through one, so a single
// stalled consumer — a follower that stopped reading but kept the
// connection open — hits the deadline and is disconnected instead of
// pinning the handler (and a draining server) indefinitely. The
// deadline applies per write, not per stream: a healthy slow reader
// that keeps draining never trips it.
type streamWriter struct {
	rc *http.ResponseController
	w  http.ResponseWriter
}

// startStream begins an NDJSON response whose leading records are
// complete up to version cur (stamped in X-QKBfly-Version, the version
// a client resumes from). The status line and headers are flushed at
// once, so a client attached at the current version sees the response
// begin before the next version publishes. Transports that cannot set
// write deadlines (test recorders) degrade to plain flushed writes.
func startStream(w http.ResponseWriter, cur uint64) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-QKBfly-Version", strconv.FormatUint(cur, 10))
	w.WriteHeader(http.StatusOK)
	sw := &streamWriter{rc: http.NewResponseController(w), w: w}
	_ = sw.rc.Flush() // a failed flush shows again at the first write
	return sw
}

// encode writes v as one JSON record line and flushes it to the peer.
func (sw *streamWriter) encode(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return sw.write(append(b, '\n'))
}

// write writes line, one already-encoded record ending in a newline, and
// flushes it to the peer. A deadline overrun surfaces as a write error;
// the handler treats it exactly like a vanished client and ends the
// stream.
func (sw *streamWriter) write(line []byte) error {
	if err := sw.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout)); err != nil &&
		!errors.Is(err, http.ErrNotSupported) {
		return err
	}
	if _, err := sw.w.Write(line); err != nil {
		return err
	}
	if err := sw.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}

// resetLine is the record that tells a /facts or /query consumer to
// discard what it holds: the records after it are the full state at
// version v, not an increment.
func resetLine(v uint64) map[string]any {
	return map[string]any{"reset": true, "version": v}
}

// followTail is the one live-tail loop behind every follow=1 stream: it
// encodes each event after version cur until the tail closes — request
// context cancelled, subscriber dropped for lagging (the client resumes
// by since=), source closed at drain — or a write fails. A nil tail (no
// follow=) returns at once. The skip serves sources that attach their
// tail before reading their head, so the tail may repeat versions the
// head covers (the analytics tracker); a session Feed never does.
func followTail[E any](sw *streamWriter, cur uint64, tail <-chan E, version func(E) uint64, encode func(E, *streamWriter) error) {
	if tail == nil {
		return
	}
	for ev := range tail {
		if version(ev) <= cur {
			continue // already covered by the head records
		}
		if encode(ev, sw) != nil {
			return // client gone or write deadline hit
		}
	}
}

// streamFeed writes a session Feed as NDJSON — the shape of /facts,
// /query?since= and /deltas: either the reset block or the replayed
// versions, then the live tail. Endpoints differ only in how they
// encode a re-baseline and one version.
func streamFeed(w http.ResponseWriter, f qkbfly.Feed,
	reset func(*qkbfly.Snapshot, *streamWriter) error, version func(qkbfly.DeltaEvent, *streamWriter) error) {
	sw := startStream(w, f.Cur)
	if f.Reset != nil && reset(f.Reset, sw) != nil {
		return
	}
	for _, ev := range f.Replay {
		if version(ev, sw) != nil {
			return
		}
	}
	followTail(sw, f.Cur, f.Tail, func(ev qkbfly.DeltaEvent) uint64 { return ev.Version }, version)
}
