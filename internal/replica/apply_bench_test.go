package replica

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"qkbfly/internal/kb/store"
	"qkbfly/internal/query"
)

// slidingChain is a leader's version chain over a sliding window: a base
// of window documents (about ten facts each), then versions records
// that each push step new documents and evict the step oldest, stamped
// the way the leader stamps them.
func slidingChain(window, step, versions int) (base *store.KB, baseID store.Identity, chain []Record) {
	rng := rand.New(rand.NewSource(1))
	segs := make([]*store.Segment, window+step*versions)
	for i := range segs {
		doc := fmt.Sprintf("doc%05d", i)
		kb := store.New()
		ent := func() string { return fmt.Sprintf("E%04d", rng.Intn(2000)) }
		for j := 0; j < 3+rng.Intn(4); j++ {
			id := ent()
			kb.AddEntity(store.EntityRecord{ID: id, Name: "entity " + id, Mentions: []string{id, "m-" + doc}, Types: []string{"T"}})
		}
		for j := 0; j < 6+rng.Intn(8); j++ {
			kb.AddFact(store.Fact{
				Subject:    store.Value{EntityID: ent()},
				Relation:   fmt.Sprintf("rel%d", rng.Intn(40)),
				Objects:    []store.Value{{EntityID: ent()}},
				Pattern:    "pat",
				Confidence: float64(1+rng.Intn(9)) / 10,
				Source:     store.Provenance{DocID: doc, SentIndex: rng.Intn(5)},
			})
		}
		segs[i] = store.SealSegment(kb, doc)
	}
	tree := store.NewTree(nil)
	for i := 0; i < window; i++ {
		tree = tree.Push(segs[i], uint64(i))
	}
	base = tree.Materialize()
	id := base.Identity()
	baseID = id
	for v := 1; v <= versions; v++ {
		old := tree
		var changed []*store.Segment
		for k := 0; k < step; k++ {
			in, out := window+(v-1)*step+k, (v-1)*step+k
			tree = tree.Push(segs[in], uint64(in))
			tree, _ = tree.Remove(uint64(out))
			changed = append(changed, segs[in], segs[out])
		}
		d, did := store.DiffTrees(old, tree, changed)
		id = id.Add(did)
		chain = append(chain, Record{Version: uint64(v), FingerprintSHA: id.Hex(), Delta: &d})
	}
	return base, baseID, chain
}

// BenchmarkFollowerApply: a follower verifying a leader's chain of
// 4-document slides over a window of about 5,000 facts — per version,
// applying the delta and checking the identity stamp, with no reader.
// The follower restarts from the seeded base when the chain runs out.
func BenchmarkFollowerApply(b *testing.B) {
	base, baseID, chain := slidingChain(600, 4, 200)
	var f *Follower
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(chain) == 0 {
			b.StopTimer()
			f = New(Options{Leader: "bench", Logf: func(string, ...any) {}})
			f.Seed(base, 0, baseID)
			b.StartTimer()
		}
		if _, err := f.applyRecord(&chain[i%len(chain)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(base.Len()), "window_facts")
}

// BenchmarkFollowerApplyRead is BenchmarkFollowerApply with a reader:
// every `every` versions, a follower /query's read of the verified
// state — KB, then a one-clause ScanKB, as handleQueryReplica does. The
// first read after a version pays for materializing it, so ns/op (per
// version, reads included) shows what a given read rate costs, and
// read_us is the mean latency of one read, the part of a follower
// /query that depends on how the follower holds its KB.
func BenchmarkFollowerApplyRead(b *testing.B) {
	base, baseID, chain := slidingChain(600, 4, 200)
	p, err := query.Parse("?s rel7 ?o")
	if err != nil {
		b.Fatal(err)
	}
	for _, every := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			var f *Follower
			var reads int
			var readTime time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(chain) == 0 {
					b.StopTimer()
					f = New(Options{Leader: "bench", Logf: func(string, ...any) {}})
					f.Seed(base, 0, baseID)
					b.StartTimer()
				}
				if _, err := f.applyRecord(&chain[i%len(chain)]); err != nil {
					b.Fatal(err)
				}
				if (i+1)%every == 0 {
					start := time.Now()
					kb, _ := f.KB()
					query.ScanKB(kb, p)
					readTime += time.Since(start)
					reads++
				}
			}
			if reads > 0 {
				b.ReportMetric(float64(readTime.Microseconds())/float64(reads), "read_us")
			}
		})
	}
}
