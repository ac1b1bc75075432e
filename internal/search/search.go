// Package search implements BM25 document retrieval over the synthetic
// article and news collections. It plays the role of the paper's
// query-time document retrieval (Wikipedia and Google News restricted to
// en.wikipedia.org / bbc.com, §6 and Appendix B Step 1).
//
// Postings are flat: each term maps to a slice of (document ordinal, term
// frequency) pairs in ascending document order, and each document's BM25
// length term k1·(1-b+b·len/avgLen) is computed once, by New. A query adds
// its term scores into a dense per-document array (pooled scratch, zeroed
// on return), each document's sum in query-term order with the title boost
// added last, and keeps the best k by bounded insertion under the result
// order — score descending, then document ID ascending — so it neither
// allocates a map nor sorts every hit.
package search

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"qkbfly/internal/nlp"
)

// BM25 parameters (standard defaults).
const (
	k1 = 1.2
	b  = 0.75
)

// Index is an inverted index with BM25 scoring. It is safe for concurrent
// searches.
type Index struct {
	docs []*nlp.Document
	// lenNorm is each document's BM25 length term k1*(1-b+b*len/avgLen).
	lenNorm  []float64
	postings map[string][]posting
	titles   map[string]int // normalized title -> doc ordinal
	scratch  sync.Pool      // *scratch
}

// posting is one (document, term frequency) entry of a term's postings.
type posting struct{ doc, tf int32 }

// scratch is one search's working state, sized to the index.
type scratch struct {
	score   []float64
	seen    []bool
	touched []int32 // documents with a score, in first-touch order
	top     []int32 // the best documents so far, best first
}

// New builds an index over the documents.
func New(docs []*nlp.Document) *Index {
	idx := &Index{
		docs:     docs,
		lenNorm:  make([]float64, len(docs)),
		postings: make(map[string][]posting),
		titles:   make(map[string]int),
	}
	total := 0
	for di, doc := range docs {
		terms := docTerms(doc)
		idx.lenNorm[di] = float64(len(terms))
		total += len(terms)
		for _, t := range terms {
			post := idx.postings[t]
			if n := len(post); n > 0 && post[n-1].doc == int32(di) {
				post[n-1].tf++
				continue
			}
			idx.postings[t] = append(post, posting{doc: int32(di), tf: 1})
		}
		idx.titles[normalize(doc.Title)] = di
	}
	if len(docs) > 0 {
		avgLen := float64(total) / float64(len(docs))
		for di, dl := range idx.lenNorm {
			idx.lenNorm[di] = k1 * (1 - b + b*dl/avgLen)
		}
	}
	idx.scratch.New = func() any {
		return &scratch{score: make([]float64, len(docs)), seen: make([]bool, len(docs))}
	}
	return idx
}

// Len returns the number of indexed documents.
func (idx *Index) Len() int { return len(idx.docs) }

// Result is one retrieval hit.
type Result struct {
	Doc   *nlp.Document
	Score float64
}

// Search returns the top-k documents for the query, optionally restricted
// to one source ("wikipedia" or "news"; empty means both). k <= 0 returns
// no hits.
func (idx *Index) Search(query string, k int, source string) []Result {
	if k <= 0 {
		return nil
	}
	sc := idx.scratch.Get().(*scratch)
	defer idx.release(sc)
	n := float64(len(idx.docs))
	for _, t := range tokenize(query) {
		post := idx.postings[t]
		if len(post) == 0 {
			continue
		}
		idf := math.Log(1 + (n-float64(len(post))+0.5)/(float64(len(post))+0.5))
		for _, p := range post {
			tf := float64(p.tf)
			sc.add(p.doc, idf*tf*(k1+1)/(tf+idx.lenNorm[p.doc]))
		}
	}
	// Exact title match gets a strong boost (the paper retrieves the
	// Wikipedia article with the entity's ID directly).
	if di, ok := idx.titles[normalize(query)]; ok {
		sc.add(int32(di), 100)
	}
	for _, di := range sc.touched {
		if source == "" || idx.docs[di].Source == source {
			idx.offer(sc, di, k)
		}
	}
	if len(sc.top) == 0 {
		return nil
	}
	out := make([]Result, len(sc.top))
	for i, di := range sc.top {
		out[i] = Result{Doc: idx.docs[di], Score: sc.score[di]}
	}
	return out
}

func (sc *scratch) add(di int32, v float64) {
	if !sc.seen[di] {
		sc.seen[di] = true
		sc.touched = append(sc.touched, di)
	}
	sc.score[di] += v
}

// better reports whether document x ranks before document y.
func (idx *Index) better(sc *scratch, x, y int32) bool {
	if sx, sy := sc.score[x], sc.score[y]; sx != sy {
		return sx > sy
	}
	return idx.docs[x].ID < idx.docs[y].ID
}

// offer inserts document di into the top list if it ranks among the best k.
func (idx *Index) offer(sc *scratch, di int32, k int) {
	top := sc.top
	if len(top) == k && !idx.better(sc, di, top[k-1]) {
		return
	}
	at := sort.Search(len(top), func(i int) bool { return idx.better(sc, di, top[i]) })
	sc.top = slices.Insert(top, at, di)[:min(len(top)+1, k)]
}

// release zeroes what the search touched and returns the scratch.
func (idx *Index) release(sc *scratch) {
	for _, di := range sc.touched {
		sc.score[di] = 0
		sc.seen[di] = false
	}
	sc.touched, sc.top = sc.touched[:0], sc.top[:0]
	idx.scratch.Put(sc)
}

// ByTitle returns the document with the given title, or nil.
func (idx *Index) ByTitle(title string) *nlp.Document {
	if di, ok := idx.titles[normalize(title)]; ok {
		return idx.docs[di]
	}
	return nil
}
func docTerms(doc *nlp.Document) []string {
	var out []string
	out = append(out, tokenize(doc.Title)...)
	if len(doc.Sentences) > 0 {
		for i := range doc.Sentences {
			for _, t := range doc.Sentences[i].Tokens {
				w := normalizeTerm(t.Text)
				if w != "" {
					out = append(out, w)
				}
			}
		}
		return out
	}
	out = append(out, tokenize(doc.Text)...)
	return out
}

func tokenize(s string) []string {
	var out []string
	for _, f := range strings.Fields(s) {
		w := normalizeTerm(f)
		if w != "" {
			out = append(out, w)
		}
	}
	return out
}

func normalizeTerm(w string) string {
	w = strings.ToLower(strings.Trim(w, ".,!?\"'()[]:;"))
	if len(w) < 2 {
		return ""
	}
	return w
}

func normalize(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}
