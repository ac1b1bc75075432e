package corpus

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"qkbfly/internal/nlp"
	"qkbfly/internal/nlp/token"
)

// This file realizes world facts as English sentences. Each relation has a
// set of templates; the generator records which facts every sentence
// expresses (the gold alignment) and, for background-corpus documents,
// which token spans link to which entities (the anchor links that play the
// role of Wikipedia hrefs).

// GenDoc is a generated document together with its gold alignment.
type GenDoc struct {
	Doc       *nlp.Document
	FactIDs   []int   // all facts expressed anywhere in the document
	SentFacts [][]int // per-sentence fact IDs
}

// template placeholders: {S} subject, {O1}..{O3} objects, {T} first time
// object. {S'} forces the subject's full name (no pronoun).
var relationTemplates = map[string][]string{
	"is_a": {
		"{S} is {A:O1}.",
		"{S} is a famous {O1}.",
	},
	"born_in": {
		"{S} was born in {O1} on {O2}.",
		"{S} was born in {O1}.",
		"{S} grew up in {O1}.",
	},
	"born_to": {
		"{S} was born to {O1}.",
		"{S} is the son of {O1}.",
	},
	"married_to": {
		"{S} married {O1} on {O2}.",
		"{S} married {O1}.",
		"{S} wed {O1} on {O2}.",
	},
	"divorced_from": {
		"{S} divorced {O1}.",
		"{S} filed for divorce from {O1}.",
		"{S} filed for divorce from {O1} on {O2}.",
	},
	"adopted": {
		"{S} adopted {O1} on {O2}.",
		"{S} adopted {O1}.",
	},
	"studied_at": {
		"{S} studied at {O1}.",
		"{S} graduated from {O1}.",
		"{S} attended {O1}.",
	},
	"play_in": {
		"{S} played {O1} in {O2}.",
		"{S} starred as {O1} in {O2}.",
		"{S} portrayed {O1} in {O2}.",
	},
	"win_award": {
		"{S} won {O1} in {O2:time}.",
		"{S} received {O1} in {O2:time} from {O3}.",
		"{S} received {O1} for {O2:lit}.",
		"{S} won {O1}.",
	},
	"supports": {
		"{S} supports {O1}.",
		"{S} endorsed {O1}.",
	},
	"donated_to": {
		"{S} donated {O1} to {O2}.",
		"{S} gave {O1} to {O2}.",
	},
	"member_of": {
		"{S} is a member of {O1}.",
		"{S} sings for {O1}.",
		"{S} joined {O1}.",
	},
	"released": {
		"{S} released {O1} in {O2}.",
		"{S} recorded {O1} in {O2}.",
	},
	"performed_at": {
		"{S} performed in {O1}.",
		"{S} played a concert in {O1}.",
	},
	"plays_for": {
		"{S} plays for {O1}.",
		"{S} signed for {O1}.",
		"{S} joined {O1}.",
	},
	"scored_for": {
		"{S} scored {O1} for {O2}.",
	},
	"elected_as": {
		"{S} was elected {O1} of {O2} in {O3}.",
		"{S} was elected {O1} of {O2}.",
		"{S} became {O1} of {O2}.",
	},
	"founded": {
		"{S} founded {O1} in {O2}.",
		"{S} established {O1} in {O2}.",
		"{S} founded {O1}.",
	},
	"leads": {
		"{S} leads {O1}.",
		"{S} runs {O1}.",
		"{S} manages {O1}.",
	},
	"works_for": {
		"{S} works at {O1}.",
		"{S} works for {O1}.",
	},
	"wrote": {
		"{S} wrote {O1}.",
	},
	"directed": {
		"{S} directed {O1}.",
	},
	"located_in": {
		"{S} lies in {O1}.",
		"{S} is located in {O1}.",
		"{S} is based in {O1}.",
	},
	"died_in": {
		"{S} died in {O1}.",
	},
	"acquired": {
		"{S} acquired {O1} for {O2}.",
		"{S} bought {O1} for {O2}.",
		"{S} acquired {O1}.",
	},
	"shot": {
		"{S} shot {O1}.",
	},
	"killed_in": {
		"The attack in {S} killed {O1}.",
	},
	"in_news": {
		"{S} made {O1} on {O2}.",
	},
	"met_with": {
		"{S} met {O1}.",
	},
	"accused_of": {
		"{S} accused {O1}.",
	},
}

// mentionRef records that a surface form in a sentence refers to an entity.
type mentionRef struct {
	surface  string
	entityID string
}

// realizer generates one document, tracking discourse state for pronouns
// and first mentions. It has its own deterministic RNG (seeded by the
// variant) so that regenerating the same document always yields identical
// text, independent of how many documents were generated before.
type realizer struct {
	w           *World
	rng         *rand.Rand
	sentences   []string
	sentFacts   [][]int
	sentRefs    [][]mentionRef
	mentioned   map[string]bool // entity already introduced by full name
	lastSubject string          // entity ID of the previous sentence's subject
	pronounRun  int             // consecutive pronoun-subject sentences
	variant     int             // template rotation counter
}

func newRealizer(w *World, variant int) *realizer {
	return &realizer{
		w: w, mentioned: map[string]bool{}, variant: variant,
		rng: rand.New(rand.NewSource(w.Config.Seed*1_000_003 + int64(variant))),
	}
}

// addSentence appends a raw sentence with its gold facts and references.
func (r *realizer) addSentence(text string, facts []int, refs []mentionRef) {
	// Collapse "F.C.." -> "F.C." at sentence end.
	if strings.HasSuffix(text, "..") {
		text = strings.TrimSuffix(text, ".")
	}
	r.sentences = append(r.sentences, text)
	r.sentFacts = append(r.sentFacts, facts)
	r.sentRefs = append(r.sentRefs, refs)
}

// surfaceFor picks a surface form for an entity. First mentions use the
// full name; later mentions may shorten to an alias.
func (r *realizer) surfaceFor(e *Entity) string {
	if !r.mentioned[e.ID] {
		r.mentioned[e.ID] = true
		return e.Name
	}
	if len(e.Aliases) > 0 && r.rng.Float64() < 0.45 {
		return e.Aliases[r.rng.Intn(len(e.Aliases))]
	}
	return e.Name
}

// subjectSurface picks the subject rendering: pronoun when the previous
// sentence had the same subject (co-reference material), else a name.
// Pronoun runs are capped at three sentences, after which the name (or an
// alias) is repeated — both natural style and what keeps antecedents
// within the paper's five-sentence co-reference window.
func (r *realizer) subjectSurface(e *Entity, allowPronoun bool) (string, bool) {
	if allowPronoun && r.lastSubject == e.ID && r.pronounRun < 3 && e.CoarseNER() == nlp.NERPerson {
		switch e.Gender {
		case nlp.GenderMale:
			r.pronounRun++
			return "He", true
		case nlp.GenderFemale:
			r.pronounRun++
			return "She", true
		}
	}
	r.pronounRun = 0
	return r.surfaceFor(e), false
}

// realizeFact renders one fact as a sentence and appends it.
func (r *realizer) realizeFact(f *Fact, allowPronoun bool) {
	templates := relationTemplates[f.Relation]
	if len(templates) == 0 {
		return
	}
	// Pick a template whose placeholders are satisfiable by the fact's
	// objects (count and kind: {On:time} needs a time, {On:lit} a
	// non-time literal, bare {On} anything).
	var tpl string
	for try := 0; try < len(templates); try++ {
		cand := templates[(r.variant+try)%len(templates)]
		if templateFits(cand, f.Objects) {
			tpl = cand
			break
		}
	}
	if tpl == "" {
		return
	}
	r.variant++
	subj := r.w.Entities[f.Subject]
	var refs []mentionRef
	subjSurface, isPronoun := r.subjectSurface(subj, allowPronoun && strings.HasPrefix(tpl, "{S}"))
	if !isPronoun {
		refs = append(refs, mentionRef{subjSurface, subj.ID})
	}
	text := tpl
	text = strings.ReplaceAll(text, "{S}", subjSurface)
	for oi, obj := range f.Objects {
		var surface string
		if obj.IsEntity() {
			oe := r.w.Entities[obj.EntityID]
			surface = r.surfaceFor(oe)
			if strings.Contains(text, fmt.Sprintf("{O%d", oi+1)) || strings.Contains(text, fmt.Sprintf("{A:O%d", oi+1)) {
				refs = append(refs, mentionRef{surface, oe.ID})
			}
		} else {
			surface = obj.Literal
		}
		// article placeholder {A:O1} ("an actor") before the bare {O1}
		for _, suffix := range []string{":time}", ":lit}", "}"} {
			text = strings.ReplaceAll(text, fmt.Sprintf("{A:O%d%s", oi+1, suffix), withArticle(surface))
			text = strings.ReplaceAll(text, fmt.Sprintf("{O%d%s", oi+1, suffix), surface)
		}
	}
	r.lastSubject = f.Subject
	r.addSentence(text, []int{f.ID}, refs)
}

// templateFits checks that every placeholder in tpl is satisfied by the
// fact's objects, including kind constraints.
func templateFits(tpl string, objects []Arg) bool {
	for i := 1; i <= 3; i++ {
		hasAny := strings.Contains(tpl, fmt.Sprintf("{O%d", i)) || strings.Contains(tpl, fmt.Sprintf("{A:O%d", i))
		if !hasAny {
			continue
		}
		if i > len(objects) {
			return false
		}
		obj := objects[i-1]
		if strings.Contains(tpl, fmt.Sprintf("{O%d:time}", i)) && obj.Time == "" {
			return false
		}
		if strings.Contains(tpl, fmt.Sprintf("{O%d:lit}", i)) && (obj.IsEntity() || obj.Time != "") {
			return false
		}
	}
	return true
}

func withArticle(noun string) string {
	if noun == "" {
		return noun
	}
	switch noun[0] {
	case 'a', 'e', 'i', 'o', 'u', 'A', 'E', 'I', 'O', 'U':
		return "an " + noun
	}
	return "a " + noun
}

// build assembles the final document, tokenizing and aligning anchors.
func (r *realizer) build(id, title, source string, withAnchors bool) *GenDoc {
	text := strings.Join(r.sentences, " ")
	doc := &nlp.Document{ID: id, Title: title, Source: source, Text: text}
	doc.Sentences = token.TokenizeSentences(text)
	gd := &GenDoc{Doc: doc, SentFacts: r.sentFacts}
	seen := map[int]bool{}
	for _, fs := range r.sentFacts {
		for _, f := range fs {
			if !seen[f] {
				seen[f] = true
				gd.FactIDs = append(gd.FactIDs, f)
			}
		}
	}
	if withAnchors {
		for si := range doc.Sentences {
			if si >= len(r.sentRefs) {
				break
			}
			alignAnchors(doc, si, r.sentRefs[si])
		}
	}
	return gd
}

// alignAnchors locates each mention surface as a token subsequence of the
// sentence and records an anchor. Each token is used at most once.
func alignAnchors(doc *nlp.Document, si int, refs []mentionRef) {
	sent := &doc.Sentences[si]
	used := make([]bool, len(sent.Tokens))
	for _, ref := range refs {
		want := strings.Fields(ref.surface)
		if len(want) == 0 {
			continue
		}
	search:
		for i := 0; i+len(want) <= len(sent.Tokens); i++ {
			if used[i] {
				continue
			}
			for k, wtok := range want {
				if !strings.EqualFold(sent.Tokens[i+k].Text, strings.Trim(wtok, ".,")) &&
					!strings.EqualFold(sent.Tokens[i+k].Text, wtok) {
					continue search
				}
			}
			for k := range want {
				used[i+k] = true
			}
			doc.Anchors = append(doc.Anchors, nlp.Anchor{
				SentIndex: si, Start: i, End: i + len(want), EntityID: ref.entityID,
			})
			break
		}
	}
}

// Article generates the Wikipedia-style article about an entity: an intro
// plus one sentence per background fact with this subject, followed by a
// couple of related-entity sentences. withAnchors enables href-style
// anchor annotations (used only for the background corpus).
func (w *World) Article(entityID string, withAnchors bool) *GenDoc {
	return w.ArticleVariant(entityID, 0, withAnchors)
}

// ArticleVariant generates an alternative realization of the article:
// different template choices and alias draws for the same facts. The
// evaluation datasets use a non-zero variant so that their text is not
// verbatim identical to the background corpus the statistics were
// computed from.
func (w *World) ArticleVariant(entityID string, variant int, withAnchors bool) *GenDoc {
	return w.article(entityID, variant, withAnchors, false)
}

// LiveArticle is the up-to-date Wikipedia page retrieved at query time
// (§6, Appendix B): unlike the background-corpus snapshot, it already
// reflects the emerging events the entity participated in.
func (w *World) LiveArticle(entityID string) *GenDoc {
	return w.article(entityID, 31, false, true)
}

func (w *World) article(entityID string, variant int, withAnchors, includeEvents bool) *GenDoc {
	e := w.Entities[entityID]
	r := newRealizer(w, int(hash32(entityID))+variant)
	// Only the entity's own facts, its home city's and the event facts
	// that mention it can pass the if chain below; every other fact falls
	// through it. Visiting these candidates in ascending fact order keeps
	// the realization order, the related cap and the RNG draws of a scan
	// over all of Facts.
	cands := append([]int(nil), w.bySubject[entityID]...)
	if e.HomeCity != "" {
		cands = append(cands, w.bySubject[e.HomeCity]...)
	}
	if includeEvents {
		cands = append(cands, w.eventsByObject[entityID]...)
	}
	slices.Sort(cands)
	var related []int
	for _, i := range slices.Compact(cands) {
		f := &w.Facts[i]
		if f.EventID >= 0 && !includeEvents {
			continue // event facts postdate the background snapshot
		}
		if f.Relation == "in_news" {
			continue
		}
		if f.Subject == entityID {
			r.realizeFact(f, true)
		} else if f.EventID >= 0 && includeEvents && factMentions(f, entityID) {
			related = append(related, i)
		} else if e.HomeCity != "" && f.Subject == e.HomeCity && f.EventID == -1 && len(related) < 2 {
			related = append(related, i)
		}
	}
	for _, i := range related {
		r.realizeFact(&w.Facts[i], false)
	}
	return r.build("wiki:"+entityID, e.Name, "wikipedia", withAnchors)
}

func factMentions(f *Fact, entityID string) bool {
	for _, o := range f.Objects {
		if o.EntityID == entityID {
			return true
		}
	}
	return false
}

// NewsArticle generates one news story about an event. variant produces
// differently-phrased stories for the same event (multiple outlets).
// Stories are profile-style: the event facts followed by background recap
// paragraphs about the participants, matching the length of real news
// articles (the paper's News dataset averages ~37 sentences per story).
func (w *World) NewsArticle(ev *Event, variant int) *GenDoc {
	r := newRealizer(w, ev.ID*97+variant*3+1)
	if ev.Headline >= 0 {
		r.realizeFact(&w.Facts[ev.Headline], false)
	}
	participants := map[string]bool{}
	for _, fid := range ev.FactIDs {
		f := &w.Facts[fid]
		r.realizeFact(f, true)
		participants[f.Subject] = true
		for _, o := range f.Objects {
			if o.IsEntity() {
				participants[o.EntityID] = true
			}
		}
	}
	// Background recap about each participant in Order (more in even
	// variants): its first background facts as subject.
	ids := make([]string, 0, len(participants))
	for id := range participants {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b string) int { return w.orderPos[a] - w.orderPos[b] })
	maxRecap := 4 + 4*((variant+1)%2)
	for _, id := range ids {
		n := 0
		for _, i := range w.bySubject[id] {
			f := &w.Facts[i]
			if f.EventID != -1 {
				continue
			}
			r.realizeFact(f, true)
			n++
			if n >= maxRecap {
				break
			}
		}
	}
	return r.build(fmt.Sprintf("news:%d:%d", ev.ID, variant), ev.Title, "news", false)
}

// hash32 is a tiny FNV-1a for deterministic per-entity template rotation.
func hash32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h % 97
}
