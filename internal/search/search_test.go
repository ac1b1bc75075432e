package search

import (
	"testing"

	"qkbfly/internal/nlp"
)

func docs() []*nlp.Document {
	return []*nlp.Document{
		{ID: "w1", Title: "Brad Pitt", Source: "wikipedia",
			Text: "Brad Pitt is an actor. He starred in many films about war and love."},
		{ID: "w2", Title: "Angelina Jolie", Source: "wikipedia",
			Text: "Angelina Jolie is an actress. She directed films."},
		{ID: "n1", Title: "Divorce filing", Source: "news",
			Text: "Angelina Jolie filed for divorce from Brad Pitt yesterday."},
		{ID: "n2", Title: "Concert news", Source: "news",
			Text: "The band played a concert in Margate."},
	}
}

func TestBM25Ranking(t *testing.T) {
	idx := New(docs())
	hits := idx.Search("divorce Brad Pitt", 4, "")
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Doc.ID != "n1" {
		t.Errorf("top hit = %s, want n1", hits[0].Doc.ID)
	}
}

func TestTitleBoost(t *testing.T) {
	idx := New(docs())
	hits := idx.Search("Brad Pitt", 4, "")
	if hits[0].Doc.ID != "w1" {
		t.Errorf("top hit for exact title = %s, want w1", hits[0].Doc.ID)
	}
}

func TestSourceFilter(t *testing.T) {
	idx := New(docs())
	for _, h := range idx.Search("Brad Pitt", 4, "news") {
		if h.Doc.Source != "news" {
			t.Errorf("news filter returned %s", h.Doc.ID)
		}
	}
	for _, h := range idx.Search("Angelina", 4, "wikipedia") {
		if h.Doc.Source != "wikipedia" {
			t.Errorf("wikipedia filter returned %s", h.Doc.ID)
		}
	}
}

func TestTopK(t *testing.T) {
	idx := New(docs())
	if hits := idx.Search("films", 1, ""); len(hits) > 1 {
		t.Errorf("k=1 returned %d hits", len(hits))
	}
}

func TestByTitle(t *testing.T) {
	idx := New(docs())
	if d := idx.ByTitle("brad pitt"); d == nil || d.ID != "w1" {
		t.Errorf("ByTitle failed: %v", d)
	}
	if d := idx.ByTitle("nobody"); d != nil {
		t.Error("ByTitle(nobody) should be nil")
	}
}

func TestNoHitsForUnknownTerms(t *testing.T) {
	idx := New(docs())
	if hits := idx.Search("zzzxqwv", 5, ""); len(hits) != 0 {
		t.Errorf("unknown term returned %d hits", len(hits))
	}
}

func TestDeterministicOrder(t *testing.T) {
	idx := New(docs())
	a := idx.Search("films actor", 4, "")
	b := idx.Search("films actor", 4, "")
	if len(a) != len(b) {
		t.Fatal("nondeterministic result count")
	}
	for i := range a {
		if a[i].Doc.ID != b[i].Doc.ID {
			t.Error("nondeterministic ranking")
		}
	}
}

func TestNonPositiveKReturnsNoHits(t *testing.T) {
	idx := New(docs())
	for _, k := range []int{0, -1} {
		if hits := idx.Search("Brad Pitt", k, ""); len(hits) != 0 {
			t.Errorf("k=%d returned %d hits", k, len(hits))
		}
	}
}
