package corpus

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// This file keeps the full-scan article and news generators the fact
// index replaced, as the reference the indexed generators must match
// document for document.

// scanArticle is article over all of Facts.
func (w *World) scanArticle(entityID string, variant int, withAnchors, includeEvents bool) *GenDoc {
	e := w.Entities[entityID]
	r := newRealizer(w, int(hash32(entityID))+variant)
	var related []int
	for i := range w.Facts {
		f := &w.Facts[i]
		if f.EventID >= 0 && !includeEvents {
			continue
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

// scanNewsArticle is NewsArticle over all of Order × Facts.
func (w *World) scanNewsArticle(ev *Event, variant int) *GenDoc {
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
	maxRecap := 4 + 4*((variant+1)%2)
	for _, id := range w.Order {
		if !participants[id] {
			continue
		}
		n := 0
		for i := range w.Facts {
			f := &w.Facts[i]
			if f.EventID != -1 || f.Subject != id {
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

// scaledWorld is the default world with every population count
// multiplied by scale.
func scaledWorld(scale int) *World {
	c := DefaultConfig()
	for _, n := range []*int{
		&c.People, &c.Cities, &c.Clubs, &c.Bands, &c.Companies,
		&c.Universities, &c.Charities, &c.Parties, &c.Films, &c.Albums,
		&c.Series, &c.Awards, &c.Events,
	} {
		*n *= scale
	}
	return NewWorld(c)
}

func sameGenDoc(t *testing.T, what string, got, want *GenDoc) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s differs from the full-scan reference:\n got %q\nwant %q", what, got.Doc.Text, want.Doc.Text)
	}
}

// TestIndexedArticlesMatchScan: over every entity of a ×2 world, the
// indexed Article (anchors on), ArticleVariant and LiveArticle, and every
// variant of every NewsArticle, give the GenDoc the full scan gives:
// text, tokens, anchors, per-sentence facts and fact IDs.
func TestIndexedArticlesMatchScan(t *testing.T) {
	w := scaledWorld(2)
	for _, id := range w.Order {
		sameGenDoc(t, "Article "+id, w.Article(id, true), w.scanArticle(id, 0, true, false))
		sameGenDoc(t, "ArticleVariant "+id, w.ArticleVariant(id, 1009, false), w.scanArticle(id, 1009, false, false))
		sameGenDoc(t, "LiveArticle "+id, w.LiveArticle(id), w.scanArticle(id, 31, false, true))
	}
	for i := range w.Events {
		for v := 0; v < 4; v++ {
			ev := &w.Events[i]
			sameGenDoc(t, fmt.Sprintf("NewsArticle %d/%d", ev.ID, v), w.NewsArticle(ev, v), w.scanNewsArticle(ev, v))
		}
	}
}

// TestDatasetsMatchSerialScan: the datasets generated on every core equal
// the full-scan documents generated one by one, in order.
func TestDatasetsMatchSerialScan(t *testing.T) {
	w := NewWorld(SmallConfig())
	var bg, wiki, news []*GenDoc
	for _, id := range w.Order {
		e := w.Entities[id]
		if e.Emerging {
			continue
		}
		bg = append(bg, w.scanArticle(id, 0, true, false))
	}
	for _, gd := range w.WikiDataset(1 << 20) {
		wiki = append(wiki, w.scanArticle(gd.Doc.ID[len("wiki:"):], 1009, false, false))
	}
	for i := range w.Events {
		for v := 0; v < 3; v++ {
			news = append(news, w.scanNewsArticle(&w.Events[i], v))
		}
	}
	for _, c := range []struct {
		name      string
		got, want []*GenDoc
	}{
		{"BackgroundCorpus", w.BackgroundCorpus(), bg},
		{"WikiDataset", w.WikiDataset(1 << 20), wiki},
		{"NewsDataset", w.NewsDataset(3), news},
	} {
		if len(c.got) != len(c.want) || len(c.got) == 0 {
			t.Fatalf("%s: %d documents, want %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			sameGenDoc(t, fmt.Sprintf("%s[%d]", c.name, i), c.got[i], c.want[i])
		}
	}
	if n := len(w.WikiDataset(5)); n != 5 {
		t.Fatalf("WikiDataset(5) gave %d documents", n)
	}
}

// TestBackgroundCorpusConcurrent: several goroutines generating the
// background corpus of one World at once (each itself on every core) all
// get the serial result. Run under -race it checks that generation only
// reads the World.
func TestBackgroundCorpusConcurrent(t *testing.T) {
	w := NewWorld(SmallConfig())
	want := w.BackgroundCorpus()
	got := make([][]*GenDoc, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = w.BackgroundCorpus()
		}()
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d: background corpus differs from a lone build", g)
		}
	}
}
