// Package densify implements the graph algorithm of §4: edge weights, the
// greedy approximation of the constrained densest-subgraph objective
// (Algorithm 1), and the normalized confidence scores. It jointly performs
// named-entity disambiguation and co-reference resolution on a semantic
// graph.
//
// One solve computes each means weight once, at reset, and each pair
// weight once per (relation edge, entity pair), when first used. The
// greedy loop caches every removable edge's contribution; after a removal
// it recomputes from scratch only the contributions whose inputs the
// removal changed (see greedyLoop). Every sum is added in a fixed order —
// edges and entities ascending by node ID — so a Result is a pure function
// of the graph and the scorer, bit for bit.
package densify

import (
	"slices"

	"qkbfly/internal/graph"
	"qkbfly/internal/kb/entityrepo"
	"qkbfly/internal/nlp"
	"qkbfly/internal/stats"
)

// Params are the hyper-parameters α1..α4 of §4 plus feature switches.
type Params struct {
	Alpha1 float64 // prior weight (means edges)
	Alpha2 float64 // context-similarity weight (means edges)
	Alpha3 float64 // entity-coherence weight (relation edges)
	Alpha4 float64 // type-signature weight (relation edges)
	// UseTypeSignatures disables the ts feature when false (the
	// QKBfly-pipeline configuration of §7.1 omits it).
	UseTypeSignatures bool
	// PipelineMode selects per-mention independent disambiguation (no
	// joint inference), used by the QKBfly-pipeline baseline.
	PipelineMode bool
}

// DefaultParams returns the hyper-parameters used when no tuning has been
// run. Tuning via L-BFGS (§4) is provided by the tuning package.
func DefaultParams() Params {
	return Params{
		Alpha1: 0.45, Alpha2: 0.25, Alpha3: 0.15, Alpha4: 0.15,
		UseTypeSignatures: true,
	}
}

// Scorer computes the §4 edge weights against the background statistics.
// It caches per-entity-pair coherence and sentence context vectors.
type Scorer struct {
	Stats  *stats.Stats
	Repo   *entityrepo.Repo
	Params Params
	Doc    *nlp.Document

	sentVec    []stats.Vector
	vecTerms   []int32   // backing store of sentVec's terms
	vecWeights []float64 // backing store of sentVec's weights
	cohCache   map[[2]string]float64
	typeCache  map[string][]string
}

// NewScorer prepares a scorer for one document.
func NewScorer(st *stats.Stats, repo *entityrepo.Repo, p Params, doc *nlp.Document) *Scorer {
	s := &Scorer{
		Stats: st, Repo: repo, Params: p,
		cohCache:  make(map[[2]string]float64),
		typeCache: make(map[string][]string),
	}
	s.Reset(doc)
	return s
}

// Reset retargets the scorer at a new document, recomputing the sentence
// context vectors. The entity-level caches (pairwise coherence, type
// closures) depend only on the background statistics and repository, so
// they survive the reset — a worker that processes many documents reuses
// them across its whole batch. The sentence vectors share one buffer,
// with room for every token of the document, that the scorer keeps and
// grows across resets.
func (s *Scorer) Reset(doc *nlp.Document) {
	s.Doc = doc
	tokens := 0
	for i := range doc.Sentences {
		tokens += len(doc.Sentences[i].Tokens)
	}
	if cap(s.vecTerms) < tokens {
		s.vecTerms, s.vecWeights = make([]int32, tokens), make([]float64, tokens)
	}
	s.sentVec = slices.Grow(s.sentVec[:0], len(doc.Sentences))[:len(doc.Sentences)]
	off := 0
	for i := range doc.Sentences {
		end := off + len(doc.Sentences[i].Tokens)
		v := &s.sentVec[i]
		v.Terms, v.Weights = s.vecTerms[off:off:end], s.vecWeights[off:off:end]
		s.Stats.SentenceVectorInto(v, &doc.Sentences[i])
		off = end
	}
}

// MeansWeight is w(ni, eij) = α1·prior + α2·sim (§4, weight (1)).
func (s *Scorer) MeansWeight(n *graph.Node, entityID string) float64 {
	prior := s.Stats.Prior(n.Text, entityID)
	sim := 0.0
	if n.SentIndex >= 0 && n.SentIndex < len(s.sentVec) {
		sim = s.Stats.Similarity(s.sentVec[n.SentIndex], entityID)
	}
	return s.Params.Alpha1*prior + s.Params.Alpha2*sim
}

// PairWeight is one (eij, etk) term of the relation-edge weight (§4,
// weight (2)): α3·coh + α4·ts.
func (s *Scorer) PairWeight(e1, e2, pattern string) float64 {
	w := s.Params.Alpha3 * s.coherence(e1, e2)
	if s.Params.UseTypeSignatures {
		w += s.Params.Alpha4 * s.Stats.TypeSignature(s.entityTypes(e1), s.entityTypes(e2), pattern)
	}
	return w
}

func (s *Scorer) coherence(e1, e2 string) float64 {
	key := [2]string{e1, e2}
	if e2 < e1 {
		key = [2]string{e2, e1}
	}
	if v, ok := s.cohCache[key]; ok {
		return v
	}
	v := s.Stats.Coherence(e1, e2)
	s.cohCache[key] = v
	return v
}

func (s *Scorer) entityTypes(entityID string) []string {
	if t, ok := s.typeCache[entityID]; ok {
		return t
	}
	var types []string
	if e := s.Repo.Get(entityID); e != nil {
		types = entityrepo.TypeClosure(e.Types)
	}
	s.typeCache[entityID] = types
	return types
}

// EntityGender returns the gender the repository records for the entity.
func (s *Scorer) EntityGender(entityID string) nlp.Gender {
	return s.Repo.Gender(entityID)
}
