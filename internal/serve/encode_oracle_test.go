package serve

import (
	"bytes"
	"encoding/json"

	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/query"
)

// The struct encoding /kb and /query bodies were written with before
// the appenders in encode.go replaced it: the shapes, tags and
// omitempty rules of the wire format, run through encoding/json. It is
// the oracle every appender and every handler body is compared with,
// byte for byte.

type oracleKBResponse struct {
	Query           string          `json:"query"`
	Source          string          `json:"source"`
	Size            int             `json:"size"`
	Docs            []oracleDocRef  `json:"docs"`
	FactCount       int             `json:"fact_count"`
	EntityCount     int             `json:"entity_count"`
	EmergingCount   int             `json:"emerging_count"`
	ElapsedNS       int64           `json:"elapsed_ns"`
	ServedFromCache bool            `json:"served_from_cache"`
	Joined          bool            `json:"joined_inflight"`
	Facts           []oracleFactRef `json:"facts"`
}

type oracleDocRef struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

type oracleFactRef struct {
	Subject    string   `json:"subject"`
	Relation   string   `json:"relation"`
	Objects    []string `json:"objects"`
	Confidence float64  `json:"confidence"`
	DocID      string   `json:"doc_id"`
	Sentence   int      `json:"sentence"`
}

type oracleValueRef struct {
	Entity  string `json:"entity,omitempty"`
	Literal string `json:"literal,omitempty"`
	Time    bool   `json:"time,omitempty"`
}

type oracleRowRef struct {
	Version  uint64                    `json:"version,omitempty"`
	Bindings map[string]oracleValueRef `json:"bindings"`
	Facts    []oracleFactRef           `json:"facts"`
}

type oracleQueryResponse struct {
	Version         uint64         `json:"version"`
	Pattern         string         `json:"pattern"`
	Tau             float64        `json:"tau"`
	Limit           int            `json:"limit"`
	ServedFromCache bool           `json:"served_from_cache"`
	Count           int            `json:"count"`
	Rows            []oracleRowRef `json:"rows"`
}

// oracleJSON is writeJSON's encoding: compact JSON and a newline.
func oracleJSON(v any) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func oracleFact(f *store.Fact) oracleFactRef {
	fr := oracleFactRef{
		Subject:    f.Subject.String(),
		Relation:   f.Relation,
		Confidence: f.Confidence,
		DocID:      f.Source.DocID,
		Sentence:   f.Source.SentIndex,
	}
	for _, o := range f.Objects {
		fr.Objects = append(fr.Objects, o.String())
	}
	return fr
}

func oracleRow(version uint64, row query.Row) oracleRowRef {
	out := oracleRowRef{Version: version, Bindings: map[string]oracleValueRef{}, Facts: []oracleFactRef{}}
	for name, v := range row.Bindings {
		if v.IsEntity() {
			out.Bindings[name] = oracleValueRef{Entity: v.EntityID}
		} else {
			out.Bindings[name] = oracleValueRef{Literal: v.Literal, Time: v.IsTime}
		}
	}
	for i := range row.Facts {
		out.Facts = append(out.Facts, oracleFact(&row.Facts[i]))
	}
	return out
}

// oracleKBBody is the /kb body for a served result: facts are the
// matches already selected and truncated to the request's limit.
func oracleKBBody(query, source string, size int, kb *store.KB, docs []*nlp.Document, elapsedNS int64, cached, joined bool, facts []store.Fact) []byte {
	resp := oracleKBResponse{
		Query:           query,
		Source:          source,
		Size:            size,
		Docs:            []oracleDocRef{},
		FactCount:       kb.Len(),
		EntityCount:     len(kb.Entities()),
		EmergingCount:   kb.EmergingCount(),
		ElapsedNS:       elapsedNS,
		ServedFromCache: cached,
		Joined:          joined,
		Facts:           []oracleFactRef{},
	}
	for _, d := range docs {
		resp.Docs = append(resp.Docs, oracleDocRef{ID: d.ID, Title: d.Title})
	}
	for i := range facts {
		resp.Facts = append(resp.Facts, oracleFact(&facts[i]))
	}
	return oracleJSON(resp)
}

// oracleQueryBody is the plain /query body for an answer.
func oracleQueryBody(version uint64, p *query.Pattern, cached bool, rows []query.Row) []byte {
	resp := oracleQueryResponse{
		Version:         version,
		Pattern:         p.String(),
		Tau:             p.Tau,
		Limit:           p.Limit,
		ServedFromCache: cached,
		Count:           len(rows),
		Rows:            []oracleRowRef{},
	}
	for _, row := range rows {
		resp.Rows = append(resp.Rows, oracleRow(0, row))
	}
	return oracleJSON(resp)
}

// oracleRowLines is an NDJSON row stream: one line per row, stamped v.
func oracleRowLines(v uint64, rows []query.Row) []byte {
	var b []byte
	for _, row := range rows {
		b = append(b, oracleJSON(oracleRow(v, row))...)
	}
	return b
}
