package corpus

import (
	"fmt"
	"strings"

	"qkbfly/internal/kb/entityrepo"
	"qkbfly/internal/nlp"
	"qkbfly/internal/parallel"
)

// This file assembles the evaluation datasets of §7 from the world:
//
//   - BackgroundCorpus: anchor-annotated Wikipedia-style articles (C)
//   - WikiDataset: the DEFIE-Wikipedia stand-in (end-to-end KB construction)
//   - NewsDataset: sport/news articles (Table 6; ~24% emerging entities)
//   - WikiaDataset: fiction pages about TV-series episodes (Table 6;
//     ~71% emerging entities — characters are mostly out-of-repository)
//   - QABenchmark: the GoogleTrendsQuestions stand-in (Table 9)

// Docs extracts the plain documents from generated documents.
func Docs(gds []*GenDoc) []*nlp.Document {
	out := make([]*nlp.Document, 0, len(gds))
	for _, gd := range gds {
		out = append(out, gd.Doc)
	}
	return out
}

// BackgroundCorpus returns anchor-annotated articles about every
// non-emerging entity. These drive the statistics (S).
func (w *World) BackgroundCorpus() []*GenDoc {
	var ids []string
	for _, id := range w.Order {
		if !w.Entities[id].Emerging {
			ids = append(ids, id)
		}
	}
	return realizeAll(len(ids), func(i int) *GenDoc { return w.Article(ids[i], true) })
}

// WikiDataset returns up to n plain (anchor-free) articles about prominent
// entities: the stand-in for the DEFIE-Wikipedia benchmark of §7.1.
func (w *World) WikiDataset(n int) []*GenDoc {
	var ids []string
	for _, id := range w.Order {
		e := w.Entities[id]
		if e.Emerging || !entityrepo.Subsumes(entityrepo.TypePerson, e.Type) {
			continue
		}
		ids = append(ids, id)
		if len(ids) >= n {
			break
		}
	}
	// A different realization than the background corpus (variant 1009):
	// same facts, different phrasing and alias choices.
	return realizeAll(len(ids), func(i int) *GenDoc { return w.ArticleVariant(ids[i], 1009, false) })
}

// NewsDataset returns news stories: several differently-phrased articles
// per emerging event. Emerging entities appear, but most participants are
// repository entities (the paper measured 24% out-of-KB here).
func (w *World) NewsDataset(articlesPerEvent int) []*GenDoc {
	if articlesPerEvent <= 0 {
		return nil
	}
	return realizeAll(len(w.Events)*articlesPerEvent, func(i int) *GenDoc {
		return w.NewsArticle(&w.Events[i/articlesPerEvent], i%articlesPerEvent)
	})
}

// realizeAll generates n documents on every core, document i by gen(i)
// into slot i. Every realizer draws from its own seeded RNG, so the
// result is the same as generating them one by one.
func realizeAll(n int, gen func(i int) *GenDoc) []*GenDoc {
	out := make([]*GenDoc, n)
	parallel.For(n, func(i int) { out[i] = gen(i) })
	return out
}

// WikiaDataset returns fiction pages in the style of episode summaries:
// sentences about characters (mostly emerging) of the world's TV series.
// This reproduces the high out-of-KB rate of the paper's Wikia dataset.
// The episode facts were generated once at world-build time, so repeated
// calls return identical pages.
func (w *World) WikiaDataset(pages int) []*GenDoc {
	var out []*GenDoc
	for p := 0; p < pages && p < len(w.Episodes); p++ {
		out = append(out, w.wikiaPage(p))
	}
	return out
}

// wikiaPage realizes one pre-generated episode.
func (w *World) wikiaPage(episode int) *GenDoc {
	ep := &w.Episodes[episode]
	s := w.Entities[ep.SeriesID]
	r := newRealizer(w, 7000+episode)
	r.addSentence(
		fmt.Sprintf("Episode %d of %s aired in 2017.", episode+1, s.Name),
		nil, []mentionRef{{s.Name, s.ID}})
	for _, fid := range ep.FactIDs {
		r.realizeFact(&w.Facts[fid], true)
	}
	return r.build(fmt.Sprintf("wikia:%s:%d", ep.SeriesID, episode), s.Name, "wikia", false)
}

// Question is one QA benchmark item with its gold answers.
type Question struct {
	Text    string
	Gold    []string // acceptable answers: entity IDs or literals
	EventID int
	// Entities mentioned in the question (IDs), used by retrieval.
	Entities []string
}

// QABenchmark generates the GoogleTrendsQuestions stand-in: questions
// about the emerging events with gold answers (§7.4). Up to two questions
// per event, mirroring the paper's 100 questions over 50 events.
func (w *World) QABenchmark() []Question {
	var out []Question
	for i := range w.Events {
		ev := &w.Events[i]
		qs := w.questionsForEvent(ev)
		if len(qs) > 2 {
			qs = qs[:2]
		}
		out = append(out, qs...)
	}
	return out
}

func (w *World) questionsForEvent(ev *Event) []Question {
	var out []Question
	add := func(text string, gold []string, ents ...string) {
		out = append(out, Question{Text: text, Gold: gold, EventID: ev.ID, Entities: ents})
	}
	for _, fid := range ev.FactIDs {
		f := &w.Facts[fid]
		subj := w.Entities[f.Subject]
		switch f.Relation {
		case "divorced_from":
			o := w.Entities[f.Objects[0].EntityID]
			add("Who filed for divorce from "+o.Name+"?", []string{subj.ID}, o.ID)
		case "win_award":
			aw := w.Entities[f.Objects[0].EntityID]
			add("Who won "+withThe(aw.Name)+"?", []string{subj.ID}, aw.ID)
			add("Which award did "+subj.Name+" win?", []string{aw.ID}, subj.ID)
		case "plays_for":
			c := w.Entities[f.Objects[0].EntityID]
			add("Which club did "+subj.Name+" sign for?", []string{c.ID}, subj.ID)
		case "performed_at":
			city := w.Entities[f.Objects[0].EntityID]
			if ev.Kind == "attack" {
				add("Which band was playing during the "+city.Name+" attack?", []string{subj.ID}, city.ID)
			} else {
				add("Where did "+subj.Name+" perform?", []string{city.ID}, subj.ID)
			}
		case "shot":
			victim := w.Entities[f.Objects[0].EntityID]
			add("Who shot "+victim.Name+"?", []string{subj.ID}, victim.ID)
		case "acquired":
			if f.Objects[0].IsEntity() {
				o := w.Entities[f.Objects[0].EntityID]
				add("Which company acquired "+o.Name+"?", []string{subj.ID}, o.ID)
			}
		case "elected_as":
			if len(f.Objects) >= 2 && f.Objects[1].IsEntity() {
				city := w.Entities[f.Objects[1].EntityID]
				add("Who was elected "+f.Objects[0].Literal+" of "+city.Name+"?", []string{subj.ID}, city.ID)
			}
		case "play_in":
			role := w.Entities[f.Objects[0].EntityID]
			film := w.Entities[f.Objects[1].EntityID]
			add("Who plays "+role.Name+" in "+film.Name+"?", []string{subj.ID}, role.ID, film.ID)
		case "donated_to":
			if len(f.Objects) >= 2 && f.Objects[1].IsEntity() {
				ch := w.Entities[f.Objects[1].EntityID]
				add("How much did "+subj.Name+" donate to "+ch.Name+"?", []string{f.Objects[0].Literal}, subj.ID, ch.ID)
			}
		}
	}
	return out
}

func withThe(name string) string {
	if strings.HasPrefix(name, "The ") || strings.HasPrefix(name, "the ") {
		return name
	}
	return "the " + name
}
