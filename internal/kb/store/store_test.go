package store

import (
	"reflect"
	"testing"
	"testing/quick"

	"qkbfly/internal/kb/entityrepo"
)

func sampleKB() *KB {
	kb := New()
	kb.AddEntity(EntityRecord{ID: "Brad_Pitt", Name: "Brad Pitt",
		Mentions: []string{"Brad Pitt", "Pitt"}, Types: []string{entityrepo.TypeActor}})
	kb.AddEntity(EntityRecord{ID: "Troy", Name: "Troy", Types: []string{entityrepo.TypeFilm}})
	kb.AddEntity(EntityRecord{ID: "new:Achilles", Name: "Achilles",
		Mentions: []string{"Achilles", "warrior Achilles"},
		Types:    []string{entityrepo.TypeCharacter}, Emerging: true})
	kb.AddFact(Fact{
		Subject:  Value{EntityID: "Brad_Pitt"},
		Relation: "play_in", Pattern: "play in",
		Objects:    []Value{{EntityID: "new:Achilles"}, {EntityID: "Troy"}},
		Confidence: 0.8,
	})
	kb.AddFact(Fact{
		Subject:  Value{EntityID: "Brad_Pitt"},
		Relation: "is_a", Pattern: "be",
		Objects:    []Value{{Literal: "actor"}},
		Confidence: 0.9,
	})
	kb.AddFact(Fact{
		Subject:  Value{EntityID: "Brad_Pitt"},
		Relation: "born_in", Pattern: "born in",
		Objects:    []Value{{EntityID: "Troy"}, {Literal: "1963-12-18", IsTime: true}},
		Confidence: 0.4,
	})
	return kb
}

func TestDedup(t *testing.T) {
	kb := sampleKB()
	n := kb.Len()
	// Exact duplicate: higher confidence wins, no new fact.
	kb.AddFact(Fact{
		Subject:  Value{EntityID: "Brad_Pitt"},
		Relation: "is_a", Pattern: "be",
		Objects:    []Value{{Literal: "Actor"}}, // case-insensitive
		Confidence: 0.95,
	})
	if kb.Len() != n {
		t.Fatalf("dedup failed: %d facts", kb.Len())
	}
	facts := kb.Search(Query{Predicate: "is_a"})
	if len(facts) != 1 || facts[0].Confidence != 0.95 {
		t.Errorf("confidence not raised: %+v", facts)
	}
}

func TestSearchBySubjectAndType(t *testing.T) {
	kb := sampleKB()
	if got := kb.Search(Query{Subject: "pitt"}); len(got) != 3 {
		t.Errorf("subject search = %d facts", len(got))
	}
	if got := kb.Search(Query{Subject: "Type:ACTOR"}); len(got) != 3 {
		t.Errorf("type search = %d facts", len(got))
	}
	if got := kb.Search(Query{Subject: "Type:PERSON"}); len(got) != 3 {
		t.Errorf("supertype search = %d facts (closure missing?)", len(got))
	}
	if got := kb.Search(Query{Subject: "Type:FOOTBALLER"}); len(got) != 0 {
		t.Errorf("wrong-type search = %d facts", len(got))
	}
}

func TestSearchByObjectAndConfidence(t *testing.T) {
	kb := sampleKB()
	if got := kb.Search(Query{Object: "achilles"}); len(got) != 1 {
		t.Errorf("object search = %d", len(got))
	}
	if got := kb.Search(Query{MinConf: 0.5}); len(got) != 2 {
		t.Errorf("tau filter = %d facts, want 2", len(got))
	}
	if got := kb.Search(Query{MinConf: 0.9}); len(got) != 1 {
		t.Errorf("tau filter at a fact's confidence = %d facts, want 1", len(got))
	}
	if got := kb.Search(Query{Object: "Type:FILM"}); len(got) != 2 {
		t.Errorf("object type search = %d", len(got))
	}
}

// TestMatchesYieldsSearchInPlace: Matches yields what Search returns, in
// order, as pointers into the KB, and stops when the loop breaks.
func TestMatchesYieldsSearchInPlace(t *testing.T) {
	kb := sampleKB()
	for _, q := range []Query{{}, {Subject: "pitt"}, {Object: "Type:FILM"}, {MinConf: 0.5}, {Predicate: "none"}} {
		want := kb.Search(q)
		var got []Fact
		for f := range kb.Matches(q) {
			if f != &kb.Facts()[f.ID] {
				t.Fatalf("%+v: fact %d is a copy", q, f.ID)
			}
			got = append(got, *f)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: Matches = %+v, Search = %+v", q, got, want)
		}
	}
	n := 0
	for range kb.Matches(Query{}) {
		n++
		break
	}
	if n != 1 {
		t.Errorf("break after one fact: yielded %d", n)
	}
}

func TestFactsAbout(t *testing.T) {
	kb := sampleKB()
	if got := kb.FactsAbout("Troy"); len(got) != 2 {
		t.Errorf("FactsAbout(Troy) = %d", len(got))
	}
	if got := kb.FactsAbout("Brad_Pitt"); len(got) != 3 {
		t.Errorf("FactsAbout(Brad_Pitt) = %d", len(got))
	}
}

func TestEntityMerging(t *testing.T) {
	kb := sampleKB()
	kb.AddEntity(EntityRecord{ID: "Brad_Pitt", Mentions: []string{"Bradley Pitt"}})
	e := kb.Entity("Brad_Pitt")
	if len(e.Mentions) != 3 {
		t.Errorf("mentions = %v", e.Mentions)
	}
}

func TestEmergingCount(t *testing.T) {
	kb := sampleKB()
	if kb.EmergingCount() != 1 {
		t.Errorf("EmergingCount = %d", kb.EmergingCount())
	}
}

func TestMerge(t *testing.T) {
	a := sampleKB()
	b := New()
	b.AddEntity(EntityRecord{ID: "X", Name: "X"})
	b.AddFact(Fact{Subject: Value{EntityID: "X"}, Relation: "r",
		Objects: []Value{{Literal: "y"}}, Confidence: 1})
	a.Merge(b)
	if a.Len() != 4 {
		t.Errorf("merged fact count = %d", a.Len())
	}
	if a.Entity("X") == nil {
		t.Error("merged entity missing")
	}
}

func TestFactString(t *testing.T) {
	kb := sampleKB()
	s := kb.Facts()[0].String()
	want := `<Brad_Pitt, play_in, new:Achilles, Troy>`
	if s != want {
		t.Errorf("String = %q, want %q", s, want)
	}
}

func TestRelations(t *testing.T) {
	kb := sampleKB()
	rels := kb.Relations()
	if len(rels) != 3 {
		t.Errorf("relations = %v", rels)
	}
}

// Property: adding the same fact twice never increases the fact count,
// regardless of the fact's shape.
func TestAddFactIdempotent(t *testing.T) {
	f := func(subj, rel, obj string, conf float64) bool {
		if subj == "" || rel == "" || obj == "" {
			return true
		}
		kb := New()
		fact := Fact{
			Subject:    Value{EntityID: subj},
			Relation:   rel,
			Objects:    []Value{{Literal: obj}},
			Confidence: conf,
		}
		kb.AddFact(fact)
		kb.AddFact(fact)
		return kb.Len() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: search with an empty query returns every stored fact.
func TestEmptySearchReturnsAll(t *testing.T) {
	kb := sampleKB()
	if got := kb.Search(Query{}); len(got) != kb.Len() {
		t.Errorf("empty search = %d, want %d", len(got), kb.Len())
	}
}
