package serve

import (
	"net/http"

	"qkbfly"
	"qkbfly/internal/kb/store"
	"qkbfly/internal/replica"
)

// handleDeltas serves GET /deltas?since=N&follow=1[&snapshot=1] — the
// leader side of the replication protocol, and the session Feed with no
// projection at all: an NDJSON stream of replica.Record, one per
// published session version after since, each carrying the full
// key-based store.Delta (fact additions, upgrades, removals, entity
// changes) stamped with the hex content identity of that version's KB
// (Snapshot.Identity — carried by the version, not computed per stream).
//
// When since predates the retained history horizon, or the subscriber
// demands snapshot=1 (a follower recovering from a quarantined
// version), the stream opens with a single reset record instead: the
// full diff from an empty KB at the current version, applied by the
// subscriber to a fresh store. With follow=1 the stream then stays
// open, shipping each new version as it publishes, until the client
// disconnects, lags a full watch buffer behind (it reconnects and
// resumes), or the session closes at drain.
func handleDeltas(s *Server, opt HandlerOptions, w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	sess := opt.Session
	if sess == nil {
		http.Error(w, "no ingestion session configured (followers do not re-export /deltas)", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	since, ok := uintParam(w, q, "since")
	if !ok {
		return
	}
	follow := q.Get("follow") != ""
	s.counters.Add(CounterDeltaStreams, 1)
	if follow {
		s.counters.Add(CounterDeltaStreamsActive, 1)
		defer s.counters.Add(CounterDeltaStreamsActive, -1)
	}
	feed := sess.Feed(r.Context(), qkbfly.FeedStart{
		Since: since, Snapshot: q.Get("snapshot") != "", Tail: follow, Drops: qkbfly.CounterDeltaWatchDrops,
	})
	record := func(rec replica.Record, sw *streamWriter) error {
		if err := sw.encode(rec); err != nil {
			return err
		}
		s.counters.Add(CounterDeltaRecords, 1)
		return nil
	}
	streamFeed(w, feed,
		func(snap *qkbfly.Snapshot, sw *streamWriter) error {
			// Re-baseline: the demanded (or horizon-forced) snapshot ships as
			// the diff from empty, so the subscriber applies it to a fresh
			// store regardless of how far it diverged.
			delta := store.Diff(store.New(), snap.KB())
			return record(replica.Record{
				Version:        snap.Version(),
				FingerprintSHA: snap.ContentID(),
				Reset:          true,
				Delta:          &delta,
			}, sw)
		},
		func(ev qkbfly.DeltaEvent, sw *streamWriter) error {
			return record(replica.Record{
				Version:        ev.Version,
				FingerprintSHA: ev.Snap.ContentID(),
				Delta:          &ev.Delta,
			}, sw)
		})
}
