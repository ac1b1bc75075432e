// Package tuning implements the hyper-parameter learning of §4: the α1..α4
// weights of the edge-weight functions are learned by maximizing the
// probability of ground-truth annotations with L-BFGS.
//
// Following the paper, each annotation is a fact consisting of a pair of
// repository entities and a relation pattern. For each annotated fact a
// graph G with two noun-phrase nodes is constructed independently; the
// probability of choosing the gold candidate pair is
//
//	prob = W(S) / W(G)
//
// where S keeps only the gold entities and W sums the α-weighted edge
// features. The α parameters maximize the log-probability of all
// annotations.
package tuning

import (
	"math"

	"qkbfly/internal/corpus"
	"qkbfly/internal/kb/entityrepo"
	"qkbfly/internal/nlp"
	"qkbfly/internal/optimize"
	"qkbfly/internal/stats"
)

// Annotation is one ground-truth fact: two mentions with their gold
// entities, the relation pattern between them, and the sentence context.
type Annotation struct {
	MentionA, MentionB string
	GoldA, GoldB       string
	Pattern            string
	Sentence           *nlp.Sentence
}

// pairFeatures are the α-weighted feature values for one candidate pair.
type pairFeatures struct {
	prior [2]float64 // feature of α1 (both mentions)
	sim   [2]float64 // feature of α2
	coh   float64    // feature of α3
	ts    float64    // feature of α4
	gold  bool
}

func (p *pairFeatures) weight(alpha []float64) float64 {
	return alpha[0]*(p.prior[0]+p.prior[1]) +
		alpha[1]*(p.sim[0]+p.sim[1]) +
		alpha[2]*p.coh + alpha[3]*p.ts
}

func (p *pairFeatures) grad() [4]float64 {
	return [4]float64{p.prior[0] + p.prior[1], p.sim[0] + p.sim[1], p.coh, p.ts}
}

// Result of a tuning run.
type Result struct {
	Alpha       [4]float64
	LogLik      float64
	Iterations  int
	Annotations int
}

// Tune learns α1..α4 from annotations against the background statistics.
func Tune(annotations []Annotation, st *stats.Stats, repo *entityrepo.Repo) Result {
	// Precompute per-annotation candidate-pair features.
	var all [][]pairFeatures
	for _, a := range annotations {
		pf := pairsFor(&a, st, repo)
		if pf != nil {
			all = append(all, pf)
		}
	}
	// Parameterize α = softplus(θ) to keep weights positive; maximize
	// Σ log( w_gold / Σ w_pair ) by minimizing its negation.
	obj := func(theta []float64) (float64, []float64) {
		alpha := make([]float64, 4)
		dAlpha := make([]float64, 4) // dα/dθ
		for i := range theta {
			alpha[i] = softplus(theta[i])
			dAlpha[i] = sigmoid(theta[i])
		}
		f := 0.0
		grad := make([]float64, 4)
		const eps = 1e-9
		for _, pairs := range all {
			var wGold, wSum float64
			var gGold, gSum [4]float64
			for i := range pairs {
				w := pairs[i].weight(alpha) + eps
				g := pairs[i].grad()
				wSum += w
				for k := 0; k < 4; k++ {
					gSum[k] += g[k]
				}
				if pairs[i].gold {
					wGold = w
					gGold = g
				}
			}
			if wGold == 0 || wSum == 0 {
				continue
			}
			f -= math.Log(wGold / wSum)
			for k := 0; k < 4; k++ {
				grad[k] -= gGold[k]/wGold - gSum[k]/wSum
			}
		}
		// Chain rule through the softplus.
		out := make([]float64, 4)
		for k := 0; k < 4; k++ {
			out[k] = grad[k] * dAlpha[k]
		}
		return f, out
	}
	opt := optimize.DefaultOptions()
	opt.MaxIter = 200
	res := optimize.Minimize(obj, []float64{0, 0, 0, 0}, opt)
	var alpha [4]float64
	sum := 0.0
	for i := range alpha {
		alpha[i] = softplus(res.X[i])
		sum += alpha[i]
	}
	// Normalize: only the ratios matter for the argmax.
	if sum > 0 {
		for i := range alpha {
			alpha[i] /= sum
		}
	}
	return Result{
		Alpha: alpha, LogLik: -res.F,
		Iterations: res.Iterations, Annotations: len(all),
	}
}

// pairsFor builds the candidate-pair feature table of one annotation.
func pairsFor(a *Annotation, st *stats.Stats, repo *entityrepo.Repo) []pairFeatures {
	candsA := repo.Candidates(a.MentionA)
	candsB := repo.Candidates(a.MentionB)
	if len(candsA) == 0 || len(candsB) == 0 {
		return nil
	}
	var vec stats.Vector // without a sentence, every similarity is 0
	if a.Sentence != nil {
		vec = st.SentenceVector(a.Sentence)
	}
	var out []pairFeatures
	goldSeen := false
	for _, ca := range candsA {
		for _, cb := range candsB {
			pf := pairFeatures{
				prior: [2]float64{st.Prior(a.MentionA, ca), st.Prior(a.MentionB, cb)},
				sim:   [2]float64{st.Similarity(vec, ca), st.Similarity(vec, cb)},
				coh:   st.Coherence(ca, cb),
				gold:  ca == a.GoldA && cb == a.GoldB,
			}
			pf.ts = st.TypeSignature(typesOf(repo, ca), typesOf(repo, cb), a.Pattern)
			if pf.gold {
				goldSeen = true
			}
			out = append(out, pf)
		}
	}
	if !goldSeen || len(out) < 2 {
		return nil // no signal: the gold pair is missing or unambiguous
	}
	return out
}

func typesOf(repo *entityrepo.Repo, id string) []string {
	if e := repo.Get(id); e != nil {
		return entityrepo.TypeClosure(e.Types)
	}
	return nil
}

// AnnotationsFromWorld samples gold annotations from the synthetic world,
// mirroring the paper's manual annotation of 162 sentences / 203 facts
// over prominent person pages.
func AnnotationsFromWorld(w *corpus.World, maxFacts int) []Annotation {
	var out []Annotation
	for i := range w.Facts {
		if len(out) >= maxFacts {
			break
		}
		f := &w.Facts[i]
		if f.EventID >= 0 || len(f.Objects) == 0 || !f.Objects[0].IsEntity() {
			continue
		}
		subj, obj := w.Entity(f.Subject), w.Entity(f.Objects[0].EntityID)
		if subj.Emerging || obj.Emerging {
			continue
		}
		// Use an ambiguous surface form when available (the surname
		// alias), so the annotation carries a real disambiguation signal.
		mentionA := subj.Name
		if len(subj.Aliases) > 0 {
			mentionA = subj.Aliases[0]
		}
		pattern := firstPattern(w, f.Relation)
		if pattern == "" {
			continue
		}
		out = append(out, Annotation{
			MentionA: mentionA, MentionB: obj.Name,
			GoldA: subj.ID, GoldB: obj.ID,
			Pattern: pattern,
		})
	}
	return out
}

func firstPattern(w *corpus.World, relation string) string {
	if syn := w.Patterns.Get(relation); syn != nil && len(syn.Patterns) > 0 {
		return syn.Patterns[0]
	}
	return ""
}

func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	return math.Log1p(math.Exp(x))
}

func sigmoid(x float64) float64 {
	if x < -40 {
		return 0
	}
	if x > 40 {
		return 1
	}
	return 1 / (1 + math.Exp(-x))
}
