package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/query"
)

// hostileStrings are the pieces random strings are made of: everything
// encoding/json escapes or rewrites (HTML characters, quotes,
// backslashes, control characters, U+2028/U+2029, invalid UTF-8) beside
// plain ASCII and valid non-ASCII text.
var hostileStrings = []string{
	"", "plain", "Barack_Obama", `quo"te`, `back\slash`, `\"`, "<b>", "a&b", ">",
	"tab\there", "line\nbreak", "\r", "\x00", "\x01\x1f", "\x7f", "\b\f",
	"\u2028", "\u2029", "café", "日本語", "😀", "\xff", "\xc3", "\xed\xa0\x80", "\ufffd",
	"1999-12-31", " ", "'single'",
}

func randString(r *rand.Rand) string {
	if r.Intn(8) == 0 { // arbitrary bytes
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return string(b)
	}
	var sb strings.Builder
	for n := r.Intn(4); n > 0; n-- {
		sb.WriteString(hostileStrings[r.Intn(len(hostileStrings))])
	}
	return sb.String()
}

// boundaryFloats straddle encoding/json's switch between fixed and
// exponent notation (1e-6 and 1e21) and its exponent clean-up.
var boundaryFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 9.99e-7, -1e-7,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 9.99e20, -1e21, 1e22,
	1e-9, 1e-10, 1e-100, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789, 1e6,
}

func randFloat(r *rand.Rand) float64 {
	if r.Intn(2) == 0 {
		return boundaryFloats[r.Intn(len(boundaryFloats))]
	}
	return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
}

func randValue(r *rand.Rand) store.Value {
	switch r.Intn(4) {
	case 0:
		return store.Value{EntityID: "E_" + randString(r)}
	case 1:
		return store.Value{Literal: randString(r), IsTime: true}
	case 2:
		return store.Value{IsTime: r.Intn(2) == 0} // empty literal
	default:
		return store.Value{Literal: randString(r)}
	}
}

func randFact(r *rand.Rand) store.Fact {
	f := store.Fact{
		Subject:    randValue(r),
		Relation:   randString(r),
		Confidence: randFloat(r),
		Source:     store.Provenance{DocID: randString(r), SentIndex: r.Intn(200) - 1},
	}
	for n := r.Intn(4); n > 0; n-- {
		f.Objects = append(f.Objects, randValue(r))
	}
	if r.Intn(3) == 0 {
		f.Objects = []store.Value{} // empty, not nil: still null on the wire
	}
	return f
}

func randRow(r *rand.Rand) query.Row {
	var row query.Row
	if r.Intn(6) != 0 { // sometimes a nil map
		row.Bindings = map[string]store.Value{}
		for n := r.Intn(12); n > 0; n-- { // past appendRow's 8-name scratch
			name := randString(r)
			if r.Intn(2) == 0 {
				name = string(rune('a' + r.Intn(26)))
			}
			row.Bindings[name] = randValue(r)
		}
	}
	for n := r.Intn(4); n > 0; n-- {
		row.Facts = append(row.Facts, randFact(r))
	}
	return row
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeEncodeStringMatchesEncodingJSON: every hostile string, and random
// mixes of them, encode exactly as json.Marshal writes them.
func TestServeEncodeStringMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cases := append([]string(nil), hostileStrings...)
	for i := 0; i < 2000; i++ {
		cases = append(cases, randString(r))
	}
	for _, s := range cases {
		want := mustMarshal(t, s)
		if got := appendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
		if got := appendJSONString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString([]byte(%q)) = %s, want %s", s, got, want)
		}
	}
}

// TestServeEncodeFloatMatchesEncodingJSON covers the format boundaries at
// 1e-6 and 1e21 and random magnitudes.
func TestServeEncodeFloatMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cases := append([]float64(nil), boundaryFloats...)
	for _, f := range boundaryFloats {
		cases = append(cases, -f)
	}
	for i := 0; i < 5000; i++ {
		cases = append(cases, randFloat(r), math.Float64frombits(r.Uint64()))
	}
	for _, f := range cases {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue // encoding/json refuses them; floatParam keeps them out
		}
		if got, want := appendJSONFloat(nil, f), mustMarshal(t, f); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestServeEncodeFactsAndRowsMatchOracle: randomized facts, rows (stamped and
// not) and document lists encode byte-identically to the struct
// encoding, including nil and empty objects, bindings and fact lists,
// time literals and hostile strings in every field.
func TestServeEncodeFactsAndRowsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		f := randFact(r)
		if got, want := appendFact(nil, &f), mustMarshal(t, oracleFact(&f)); !bytes.Equal(got, want) {
			t.Fatalf("fact %+v:\n got %s\nwant %s", f, got, want)
		}
		row := randRow(r)
		v := uint64(0)
		if r.Intn(2) == 0 {
			v = r.Uint64() >> uint(r.Intn(64))
		}
		if got, want := appendRow(nil, v, &row), mustMarshal(t, oracleRow(v, row)); !bytes.Equal(got, want) {
			t.Fatalf("row v%d %+v:\n got %s\nwant %s", v, row, got, want)
		}
	}
	for n := 0; n < 4; n++ {
		rows := make([]query.Row, n)
		for i := range rows {
			rows[i] = randRow(r)
		}
		want := []oracleRowRef{}
		for _, row := range rows {
			want = append(want, oracleRow(0, row))
		}
		if got := appendRows(nil, rows); !bytes.Equal(got, mustMarshal(t, want)) {
			t.Fatalf("rows:\n got %s\nwant %s", got, mustMarshal(t, want))
		}
		docs := make([]*nlp.Document, n)
		wantDocs := []oracleDocRef{}
		for i := range docs {
			docs[i] = &nlp.Document{ID: randString(r), Title: randString(r)}
			wantDocs = append(wantDocs, oracleDocRef{ID: docs[i].ID, Title: docs[i].Title})
		}
		if got := appendDocs(nil, docs); !bytes.Equal(got, mustMarshal(t, wantDocs)) {
			t.Fatalf("docs:\n got %s\nwant %s", got, mustMarshal(t, wantDocs))
		}
	}
}

// FuzzAppendJSONString: for any string the appender writes what
// json.Marshal writes.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := mustMarshal(t, s)
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	})
}
