// Package stats computes the background statistics (S) of the paper
// (§2.2, §4) from the anchor-annotated background corpus (C):
//
//   - mention→entity priors from anchor links (the Wikipedia href counts);
//   - TF-IDF context vectors for entities (from their articles) and the
//     weighted overlap coefficient used as the similarity measure;
//   - type signatures: (co-)occurrence counts of argument types under
//     relation patterns, from clauses whose arguments are anchor-linked
//     entities or recognized names/time expressions.
//
// A context vector is a sparse Vector: the IDs of its terms, ascending,
// their weights in the same order, and the sum of the weights. Build
// numbers the background corpus's terms in sorted-term order, so an ID
// means the same term in every process. An entity's sum adds its terms in
// their order of first occurrence in its article; a sentence's sum adds
// every token's weight in token order, including tokens the corpus never
// saw, which are not stored because they cannot match. The overlap of two
// vectors merge-joins their ID lists and adds the matched minima in
// ascending value order, so every similarity is a pure function of the
// two vectors, bit for bit.
package stats

import (
	"math"
	"slices"
	"sort"
	"strings"

	"qkbfly/internal/intern"
	"qkbfly/internal/kb/entityrepo"
	"qkbfly/internal/nlp"
	"qkbfly/internal/nlp/clause"
	"qkbfly/internal/parallel"
)

// Stats holds the precomputed background statistics.
type Stats struct {
	anchorCount  map[string]map[string]int   // mention -> entity -> count
	mentionTotal map[string]int              // mention -> total anchors
	ctx          map[string]Vector           // entity -> context vector
	termID       map[string]int32            // background term -> term ID
	idf          []float64                   // term ID -> idf
	unseenIDF    float64                     // idf of a term the corpus never saw
	typeSig      map[string]map[typePair]int // pattern -> (subject type, object type) -> count
	typeSigTotal map[string]int
}

// Vector is a sparse TF-IDF vector: Terms holds term IDs in ascending
// order, Weights their weights in the same order, and Sum the sum of the
// vector's weights (see the package doc for the order it is added in).
type Vector struct {
	Terms   []int32
	Weights []float64
	Sum     float64
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
		typeSig:      make(map[string]map[typePair]int),
		typeSigTotal: make(map[string]int),
	}
	df := make(map[string]int)

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
			df[w]++
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
	// Term IDs in sorted-term order, and each term's idf.
	terms := make([]string, 0, len(df))
	for w := range df {
		terms = append(terms, w)
	}
	sort.Strings(terms)
	s.termID = make(map[string]int32, len(terms))
	s.idf = make([]float64, len(terms))
	for i, w := range terms {
		s.termID[w] = int32(i)
		s.idf[i] = math.Log(float64(len(docs)+1) / float64(df[w]+1))
	}
	s.unseenIDF = math.Log(float64(len(docs) + 1))

	// TF-IDF vectors, all stored in one backing array. Sorting an
	// entity's terms sorts them by ID, as IDs follow sorted-term order.
	n := 0
	for _, tc := range tf {
		n += len(tc.terms)
	}
	ids, weights := make([]int32, 0, n), make([]float64, 0, n)
	s.ctx = make(map[string]Vector, len(tf))
	for entityID, tc := range tf {
		sum := 0.0
		for _, w := range tc.terms {
			sum += float64(tc.counts[w]) * s.idf[s.termID[w]]
		}
		slices.Sort(tc.terms)
		start := len(ids)
		for _, w := range tc.terms {
			id := s.termID[w]
			ids = append(ids, id)
			weights = append(weights, float64(tc.counts[w])*s.idf[id])
		}
		end := len(ids)
		s.ctx[entityID] = Vector{Terms: ids[start:end:end], Weights: weights[start:end:end], Sum: sum}
	}

	// Pass 2: type signatures from clauses. Arguments are typed by anchor
	// (entity types from the repository), NER label, or TIME. Documents
	// are annotated on every core; their signatures are counted after,
	// in document order.
	if pipe != nil {
		sigs := make([][]signature, len(docs))
		parallel.For(len(docs), func(i int) { sigs[i] = docSignatures(docs[i], repo, pipe) })
		for _, ds := range sigs {
			for _, sig := range ds {
				s.countSig(sig.pattern, sig.subj, sig.obj)
			}
		}
	}
	return s
}

// signature is one (pattern, subject types, object types) observation of
// a clause argument pair.
type signature struct {
	pattern   string
	subj, obj []string
}

// docSignatures annotates doc in place and returns the type signature of
// every (subject, object) argument pair of its clauses, in clause order.
func docSignatures(doc *nlp.Document, repo *entityrepo.Repo, pipe *clause.Pipeline) []signature {
	var out []signature
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
			subjTypes := argTypes(&doc.Sentences[si], c.Subject.Head, anchorAt, repo)
			for _, obj := range c.Args()[1:] {
				out = append(out, signature{c.Pattern, subjTypes, argTypes(&doc.Sentences[si], obj.Head, anchorAt, repo)})
			}
		}
	}
	return out
}

func docEntity(doc *nlp.Document) string {
	if id, ok := strings.CutPrefix(doc.ID, "wiki:"); ok {
		return id
	}
	return ""
}

// argTypes determines the semantic types of a clause argument.
func argTypes(sent *nlp.Sentence, head int, anchorAt map[int]string, repo *entityrepo.Repo) []string {
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

// ContextVector returns the TF-IDF context vector of an entity (the zero
// Vector if the corpus has no article about it).
func (s *Stats) ContextVector(entityID string) Vector {
	return s.ctx[entityID]
}

// SentenceVector builds the TF-IDF context vector of a sentence (the
// context of a noun-phrase occurrence, §4).
func (s *Stats) SentenceVector(sent *nlp.Sentence) Vector {
	var v Vector
	s.SentenceVectorInto(&v, sent)
	return v
}

// SentenceVectorInto is SentenceVector filling a caller-recycled Vector,
// so per-document scorer resets reuse their vectors' storage instead of
// reallocating it. A term repeated in the sentence has its idf added once
// per occurrence.
func (s *Stats) SentenceVectorInto(v *Vector, sent *nlp.Sentence) {
	if n := len(sent.Tokens); cap(v.Terms) < n {
		// Grown once to the token count, not term by term.
		v.Terms, v.Weights = make([]int32, 0, n), make([]float64, 0, n)
	}
	v.Terms, v.Weights, v.Sum = v.Terms[:0], v.Weights[:0], 0
	for _, t := range sent.Tokens {
		w := intern.Lower(t.Text)
		if id, ok := s.termID[w]; ok {
			v.Terms = append(v.Terms, id)
			v.Sum += s.idf[id]
		} else if !stopwords[w] && len(w) >= 2 && isWordLike(w) {
			v.Sum += s.unseenIDF
		}
	}
	slices.Sort(v.Terms)
	n := 0
	for i, id := range v.Terms {
		if i > 0 && id == v.Terms[n-1] {
			v.Weights[n-1] += s.idf[id]
			continue
		}
		v.Terms[n] = id
		v.Weights = append(v.Weights, s.idf[id])
		n++
	}
	v.Terms = v.Terms[:n]
}

// Similarity computes the weighted overlap coefficient of §4 between a
// sentence vector and an entity's context vector:
// sum_k min(vk, v'k) / min(sum vk, sum v'k).
func (s *Stats) Similarity(vec Vector, entityID string) float64 {
	evec, ok := s.ctx[entityID]
	if !ok {
		return 0
	}
	return overlapCoefficient(vec, evec)
}

// Coherence computes the weighted overlap similarity between the context
// vectors of two entities (coh in §4).
func (s *Stats) Coherence(e1, e2 string) float64 {
	v1, ok1 := s.ctx[e1]
	v2, ok2 := s.ctx[e2]
	if !ok1 || !ok2 {
		return 0
	}
	return overlapCoefficient(v1, v2)
}

// overlapCoefficient is sum_k min(a_k, b_k) / min(a.Sum, b.Sum), 0 when
// the denominator is.
func overlapCoefficient(a, b Vector) float64 {
	den := math.Min(a.Sum, b.Sum)
	if den == 0 {
		return 0
	}
	return clamp01(overlap(a, b) / den)
}

// overlap returns sum_k min(a_k, b_k), merge-joining the two ID lists.
// The matched minima are added in ascending value order: float addition
// is not associative, and this order depends on the two vectors alone,
// not on how either was built or which one is passed first.
func overlap(a, b Vector) float64 {
	var buf [128]float64
	mins := buf[:0]
	for i, j := 0, 0; i < len(a.Terms) && j < len(b.Terms); {
		switch ta, tb := a.Terms[i], b.Terms[j]; {
		case ta < tb:
			i++
		case ta > tb:
			j++
		default:
			mins = append(mins, math.Min(a.Weights[i], b.Weights[j]))
			i++
			j++
		}
	}
	slices.Sort(mins)
	sum := 0.0
	for _, m := range mins {
		sum += m
	}
	return sum
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
