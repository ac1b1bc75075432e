// Package stats computes the background statistics (S) of the paper
// (§2.2, §4) from the anchor-annotated background corpus (C):
//
//   - mention→entity priors from anchor links (the Wikipedia href counts);
//   - TF-IDF context vectors for entities (from their articles) and the
//     weighted overlap coefficient used as the similarity measure;
//   - type signatures: (co-)occurrence counts of argument types under
//     relation patterns, from clauses whose arguments are anchor-linked
//     entities or recognized names/time expressions.
package stats

import (
	"math"
	"sort"
	"strings"

	"qkbfly/internal/intern"
	"qkbfly/internal/kb/entityrepo"
	"qkbfly/internal/nlp"
	"qkbfly/internal/nlp/clause"
)

// Stats holds the precomputed background statistics.
type Stats struct {
	anchorCount  map[string]map[string]int // mention -> entity -> count
	mentionTotal map[string]int            // mention -> total anchors
	ctx          map[string]map[string]float64
	ctxSum       map[string]float64
	df           map[string]int
	nDocs        int
	typeSig      map[string]map[typePair]int // pattern -> (subject type, object type) -> count
	typeSigTotal map[string]int
}

// typePair is the argument-type combination of one type-signature count.
type typePair struct{ subj, obj string }

var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "is": true, "was": true, "are": true,
	"were": true, "be": true, "been": true, "in": true, "on": true,
	"of": true, "to": true, "for": true, "from": true, "and": true,
	"or": true, "he": true, "she": true, "it": true, "they": true,
	"his": true, "her": true, "its": true, "their": true, "at": true,
	"by": true, "with": true, "as": true, "that": true, "this": true,
}

// Build computes statistics from the background corpus. Each document that
// describes an entity must have ID "wiki:<entityID>" (the corpus generator
// guarantees this); its tokens form that entity's context vector. The
// pipeline is used to detect clauses for the type-signature counts.
func Build(docs []*nlp.Document, repo *entityrepo.Repo, pipe *clause.Pipeline) *Stats {
	s := &Stats{
		anchorCount:  make(map[string]map[string]int),
		mentionTotal: make(map[string]int),
		ctx:          make(map[string]map[string]float64),
		ctxSum:       make(map[string]float64),
		df:           make(map[string]int),
		typeSig:      make(map[string]map[typePair]int),
		typeSigTotal: make(map[string]int),
	}
	s.nDocs = len(docs)

	// Pass 1: term frequencies and document frequencies. Each document's
	// distinct terms are also kept in first-occurrence order: the order
	// the TF-IDF sum below adds them in, so that the sum — and every
	// similarity normalized by it — is the same in every process.
	type termCounts struct {
		counts map[string]int
		terms  []string
	}
	tf := make(map[string]termCounts, len(docs))
	for _, doc := range docs {
		entityID := docEntity(doc)
		if len(doc.Sentences) == 0 {
			continue
		}
		tc := termCounts{counts: map[string]int{}}
		for i := range doc.Sentences {
			for _, t := range doc.Sentences[i].Tokens {
				w := intern.Lower(t.Text)
				if stopwords[w] || len(w) < 2 || !isWordLike(w) {
					continue
				}
				if tc.counts[w] == 0 {
					tc.terms = append(tc.terms, w)
				}
				tc.counts[w]++
			}
		}
		for _, w := range tc.terms {
			s.df[w]++
		}
		if entityID != "" {
			tf[entityID] = tc
		}
		// Anchor priors.
		for _, a := range doc.Anchors {
			mention := normalizeMention(doc.Sentences[a.SentIndex].TokenText(a.Start, a.End))
			if mention == "" {
				continue
			}
			m := s.anchorCount[mention]
			if m == nil {
				m = map[string]int{}
				s.anchorCount[mention] = m
			}
			m[a.EntityID]++
			s.mentionTotal[mention]++
		}
	}
	// TF-IDF vectors.
	for entityID, tc := range tf {
		vec := make(map[string]float64, len(tc.terms))
		sum := 0.0
		for _, w := range tc.terms {
			idf := math.Log(float64(s.nDocs+1) / float64(s.df[w]+1))
			v := float64(tc.counts[w]) * idf
			vec[w] = v
			sum += v
		}
		s.ctx[entityID] = vec
		s.ctxSum[entityID] = sum
	}

	// Pass 2: type signatures from clauses. Arguments are typed by anchor
	// (entity types from the repository), NER label, or TIME.
	if pipe != nil {
		for _, doc := range docs {
			clausesBySent := pipe.AnnotateDocument(doc)
			for si := range doc.Sentences {
				anchorAt := map[int]string{}
				for _, a := range doc.Anchors {
					if a.SentIndex != si {
						continue
					}
					for k := a.Start; k < a.End; k++ {
						anchorAt[k] = a.EntityID
					}
				}
				for _, c := range clausesBySent[si] {
					if c.Subject == nil {
						continue
					}
					subjTypes := s.argTypes(&doc.Sentences[si], c.Subject.Head, anchorAt, repo)
					for _, obj := range c.Args()[1:] {
						objTypes := s.argTypes(&doc.Sentences[si], obj.Head, anchorAt, repo)
						s.countSig(c.Pattern, subjTypes, objTypes)
					}
				}
			}
		}
	}
	return s
}

func docEntity(doc *nlp.Document) string {
	if id, ok := strings.CutPrefix(doc.ID, "wiki:"); ok {
		return id
	}
	return ""
}

// argTypes determines the semantic types of a clause argument.
func (s *Stats) argTypes(sent *nlp.Sentence, head int, anchorAt map[int]string, repo *entityrepo.Repo) []string {
	if id, ok := anchorAt[head]; ok && repo != nil {
		if e := repo.Get(id); e != nil {
			return entityrepo.TypeClosure(e.Types)
		}
	}
	t := sent.Tokens[head]
	if t.NER == nlp.NERTime {
		return []string{"TIME"}
	}
	if t.NER != nlp.NERNone {
		return []string{string(t.NER)}
	}
	return []string{"LITERAL"}
}

func (s *Stats) countSig(pattern string, subjTypes, objTypes []string) {
	m := s.typeSig[pattern]
	if m == nil {
		m = map[typePair]int{}
		s.typeSig[pattern] = m
	}
	for _, st := range subjTypes {
		for _, ot := range objTypes {
			m[typePair{st, ot}]++
			s.typeSigTotal[pattern]++
		}
	}
}

// Prior returns the anchor-based prior probability that the mention
// denotes the entity: count(mention→entity) / count(mention→*).
func (s *Stats) Prior(mention, entityID string) float64 {
	key := normalizeMention(mention)
	total := s.mentionTotal[key]
	if total == 0 {
		return 0
	}
	return float64(s.anchorCount[key][entityID]) / float64(total)
}

// Candidates returns the entities the mention links to in the corpus,
// useful as a fallback candidate source.
func (s *Stats) Candidates(mention string) map[string]int {
	return s.anchorCount[normalizeMention(mention)]
}

// ContextVector returns the TF-IDF context vector of an entity (may be nil).
func (s *Stats) ContextVector(entityID string) map[string]float64 {
	return s.ctx[entityID]
}

// SentenceVector builds the TF-IDF context vector of a sentence (the
// context of a noun-phrase occurrence, §4).
func (s *Stats) SentenceVector(sent *nlp.Sentence) (map[string]float64, float64) {
	return s.SentenceVectorInto(nil, sent)
}

// SentenceVectorInto is SentenceVector filling a caller-recycled map
// (allocated when nil, cleared otherwise), so per-document scorer resets
// reuse their vector maps instead of reallocating them.
func (s *Stats) SentenceVectorInto(vec map[string]float64, sent *nlp.Sentence) (map[string]float64, float64) {
	if vec == nil {
		vec = map[string]float64{}
	} else {
		clear(vec)
	}
	sum := 0.0
	for _, t := range sent.Tokens {
		w := intern.Lower(t.Text)
		if stopwords[w] || len(w) < 2 || !isWordLike(w) {
			continue
		}
		idf := math.Log(float64(s.nDocs+1) / float64(s.df[w]+1))
		vec[w] += idf
		sum += idf
	}
	return vec, sum
}

// Similarity computes the weighted overlap coefficient of §4 between a
// sentence vector (with its sum) and an entity's context vector:
// sum_k min(vk, v'k) / min(sum vk, sum v'k).
func (s *Stats) Similarity(vec map[string]float64, vecSum float64, entityID string) float64 {
	evec := s.ctx[entityID]
	if evec == nil || vecSum == 0 {
		return 0
	}
	overlap := mapOverlap(vec, evec)
	den := math.Min(vecSum, s.ctxSum[entityID])
	if den == 0 {
		return 0
	}
	return clamp01(overlap / den)
}

// mapOverlap returns sum_w min(a[w], b[w]) with the terms summed in
// sorted order. Float addition is not associative, and Go randomizes map
// iteration order, so accumulating directly over the range loop makes
// the overlap — and every confidence derived from it — differ by an ULP
// between otherwise identical builds. Sorting the term multiset first
// makes the sum a pure function of the two vectors.
func mapOverlap(a, b map[string]float64) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	var buf [128]float64
	terms := buf[:0]
	for w, av := range a {
		if bv, ok := b[w]; ok {
			terms = append(terms, math.Min(av, bv))
		}
	}
	sort.Float64s(terms)
	overlap := 0.0
	for _, t := range terms {
		overlap += t
	}
	return overlap
}

// clamp01 guards against floating-point accumulation pushing an overlap
// coefficient infinitesimally outside [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Coherence computes the weighted overlap similarity between the context
// vectors of two entities (coh in §4).
func (s *Stats) Coherence(e1, e2 string) float64 {
	v1, v2 := s.ctx[e1], s.ctx[e2]
	if v1 == nil || v2 == nil {
		return 0
	}
	if len(v2) < len(v1) {
		v1, v2 = v2, v1
		e1, e2 = e2, e1
	}
	overlap := mapOverlap(v1, v2)
	den := math.Min(s.ctxSum[e1], s.ctxSum[e2])
	if den == 0 {
		return 0
	}
	return clamp01(overlap / den)
}

// TypeSignature returns ts(e_i, e_t, r): the relative frequency of the
// argument-type combination under the relation pattern, summed over all
// type pairs of the two entities (§4).
func (s *Stats) TypeSignature(subjTypes, objTypes []string, pattern string) float64 {
	total := s.typeSigTotal[pattern]
	if total == 0 {
		return 0
	}
	m := s.typeSig[pattern]
	count := 0
	for _, st := range subjTypes {
		for _, ot := range objTypes {
			count += m[typePair{st, ot}]
		}
	}
	return float64(count) / float64(total)
}

// HasPattern reports whether the pattern was observed in the background
// corpus at all.
func (s *Stats) HasPattern(pattern string) bool { return s.typeSigTotal[pattern] > 0 }

func normalizeMention(m string) string {
	if intern.IsNormalized(m, false) {
		return m
	}
	return intern.S(strings.Join(strings.Fields(strings.ToLower(m)), " "))
}

func isWordLike(w string) bool {
	for _, r := range w {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' && r != '.' && r != '\'' {
			return false
		}
	}
	return true
}
