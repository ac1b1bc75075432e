package replica

import (
	"fmt"

	"qkbfly/internal/kb/store"
	"qkbfly/internal/kb/store/persist"
)

// Bootstrap restores a follower base state from a persist store
// directory (one seeded from a copy of the leader's -data-dir). It rebuilds the merge tree from the recovered documents,
// materializes the KB, and — when the manifest was sealed — verifies
// the result's content identity against the seal, refusing a mismatched
// base the same way qkbflyd refuses a mismatched warm boot. The
// returned version is the resume point for Options.Since / Seed, so a
// follower far behind the leader's retained history replays only the
// versions after its bootstrap instead of a full snapshot.
//
// The directory is opened exclusively for the duration of the call
// (persist.Store owns its dir); seed followers from a copy, not the
// leader's live directory.
func Bootstrap(dir string, logf func(format string, args ...any)) (kb *store.KB, version uint64, id store.Identity, err error) {
	st, rec, err := persist.Open(dir, persist.Options{Logf: logf})
	if err != nil {
		return nil, 0, store.Identity{}, fmt.Errorf("replica bootstrap: %w", err)
	}
	// Materialize before Close: demoted segments fault their payloads in
	// through loaders that read the store's blob files.
	tree := store.NewTree(store.RestoreMergeFunc())
	for _, d := range rec.Docs {
		tree = tree.Push(d.Seg, d.Seq)
	}
	kb = tree.Materialize()
	if cerr := st.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("replica bootstrap: closing store: %w", cerr)
	}
	id = kb.Identity()
	if rec.Sealed && id != rec.Identity {
		return nil, 0, store.Identity{}, fmt.Errorf("replica bootstrap: %s restored v%d with identity %s, manifest sealed %s",
			dir, rec.Version, id.Hex(), rec.Identity.Hex())
	}
	if err != nil {
		return nil, 0, store.Identity{}, err
	}
	return kb, rec.Version, id, nil
}
