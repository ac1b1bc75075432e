package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"qkbfly/internal/kb/store"
	"qkbfly/internal/nlp"
	"qkbfly/internal/query"
)

// The /kb and /query bodies are written by hand-rolled appenders rather
// than encoding/json: a cached pattern answer is encoded once and its
// bytes are reused by every later hit, and the appenders walk facts and
// rows without reflection or per-row maps. The output is byte-for-byte what
// encoding/json writes for the same shapes (HTML-escaped strings, its
// float format, omitempty on binding values, map keys in sorted order);
// the struct encoding it replaces is kept in encode_oracle_test.go and
// every appender is tested against it.

// appendJSONString appends s as a JSON string, exactly as json.Marshal
// writes it. Printable ASCII other than <, > and & (which encoding/json
// escapes for HTML) is copied through, with " and \ backslash-escaped;
// any other byte hands the whole string to encoding/json.
func appendJSONString[S string | []byte](buf []byte, s S) []byte {
	start := len(buf)
	buf = append(buf, '"')
	last := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80 || c == '<' || c == '>' || c == '&':
			b, _ := json.Marshal(string(s))
			return append(buf[:start], b...)
		case c == '"' || c == '\\':
			buf = append(buf, s[last:i]...)
			buf = append(buf, '\\', c)
			last = i + 1
		}
	}
	buf = append(buf, s[last:]...)
	return append(buf, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21 up,
// with a one-digit negative exponent unpadded. f must be finite.
func appendJSONFloat(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// appendValueString appends store.Value.String() — the entity ID, or the
// Go-quoted literal — as a JSON string.
func appendValueString(buf []byte, v store.Value) []byte {
	if v.IsEntity() {
		return appendJSONString(buf, v.EntityID)
	}
	var scratch [128]byte
	return appendJSONString(buf, strconv.AppendQuote(scratch[:0], v.Literal))
}

// appendFact appends one fact as the objects of a /kb facts list and of a
// /query row's evidence:
//
//	{"subject","relation","objects","confidence","doc_id","sentence"}
//
// objects is null for a fact without objects.
func appendFact(buf []byte, f *store.Fact) []byte {
	buf = append(buf, `{"subject":`...)
	buf = appendValueString(buf, f.Subject)
	buf = append(buf, `,"relation":`...)
	buf = appendJSONString(buf, f.Relation)
	buf = append(buf, `,"objects":`...)
	if len(f.Objects) == 0 {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, o := range f.Objects {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendValueString(buf, o)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"confidence":`...)
	buf = appendJSONFloat(buf, f.Confidence)
	buf = append(buf, `,"doc_id":`...)
	buf = appendJSONString(buf, f.Source.DocID)
	buf = append(buf, `,"sentence":`...)
	buf = strconv.AppendInt(buf, int64(f.Source.SentIndex), 10)
	return append(buf, '}')
}

// appendBinding appends one bound value: {"entity"} for an entity,
// otherwise {"literal","time"} with each field left out when empty.
func appendBinding(buf []byte, v store.Value) []byte {
	if v.IsEntity() {
		buf = append(buf, `{"entity":`...)
		buf = appendJSONString(buf, v.EntityID)
		return append(buf, '}')
	}
	buf = append(buf, '{')
	if v.Literal != "" {
		buf = append(buf, `"literal":`...)
		buf = appendJSONString(buf, v.Literal)
	}
	if v.IsTime {
		if v.Literal != "" {
			buf = append(buf, ',')
		}
		buf = append(buf, `"time":true`...)
	}
	return append(buf, '}')
}

// appendRow appends one answer row, {"version","bindings","facts"}: the
// bindings in sorted variable order, one supporting fact per clause, and
// version (the stamp of an incremental stream line) left out when 0.
func appendRow(buf []byte, version uint64, row *query.Row) []byte {
	buf = append(buf, '{')
	if version != 0 {
		buf = append(buf, `"version":`...)
		buf = strconv.AppendUint(buf, version, 10)
		buf = append(buf, ',')
	}
	var scratch [8]string
	names := scratch[:0]
	for name := range row.Bindings {
		names = append(names, name)
	}
	slices.Sort(names)
	buf = append(buf, `"bindings":{`...)
	for i, name := range names {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, name)
		buf = append(buf, ':')
		buf = appendBinding(buf, row.Bindings[name])
	}
	buf = append(buf, `},"facts":[`...)
	for i := range row.Facts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendFact(buf, &row.Facts[i])
	}
	return append(buf, "]}"...)
}

// appendRows appends rows as a JSON array of unstamped rows.
func appendRows(buf []byte, rows []query.Row) []byte {
	buf = append(buf, '[')
	for i := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendRow(buf, 0, &rows[i])
	}
	return append(buf, ']')
}

// appendDocs appends the /kb document list, [{"id","title"}...].
func appendDocs(buf []byte, docs []*nlp.Document) []byte {
	buf = append(buf, '[')
	for i, d := range docs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"id":`...)
		buf = appendJSONString(buf, d.ID)
		buf = append(buf, `,"title":`...)
		buf = appendJSONString(buf, d.Title)
		buf = append(buf, '}')
	}
	return append(buf, ']')
}

// bodyBufs recycles the buffers response bodies are assembled in.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody caps the buffers kept for reuse, so one huge answer does
// not pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

func getBodyBuf() *[]byte { return bodyBufs.Get().(*[]byte) }

func putBodyBuf(b *[]byte) {
	if cap(*b) <= maxPooledBody {
		*b = (*b)[:0]
		bodyBufs.Put(b)
	}
}

// writeJSONBody writes a 200 JSON response whose body is the
// concatenation of parts — the one-line, newline-terminated form
// writeJSON produces.
func writeJSONBody(w http.ResponseWriter, parts ...[]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return
		}
	}
}
