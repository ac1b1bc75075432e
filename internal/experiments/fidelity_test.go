package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qkbfly/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite testdata/fidelity.golden from the current code")

const fidelityGolden = "testdata/fidelity.golden"

// TestFidelityGolden pins the quality columns of Tables 3, 4, 5, 6 and 9
// exactly as `go run ./cmd/experiments -table 3,4,5,6,9` prints them
// (default world, seed 1, 80 documents, 200 assessments), with every
// timing column removed. A change to the algorithms that moves any
// precision, count, p-value or F1 fails here; regenerate with
// `go test ./internal/experiments -run TestFidelityGolden -update` only
// when that change is intended.
func TestFidelityGolden(t *testing.T) {
	got := fidelityTables()
	if *update {
		if err := os.MkdirAll(filepath.Dir(fidelityGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fidelityGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fidelityGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
			}
		}
	}
}

// fidelityTables runs the experiments of `cmd/experiments -table
// 3,4,5,6,9` with its default flags and renders them the way it prints
// them, minus the timing columns.
func fidelityTables() string {
	cfg := corpus.DefaultConfig()
	cfg.Seed = 1
	env := NewEnv(cfg, 3)
	const docs, sample = 80, 200
	t3, t4 := RunTable3And4(env, docs, sample)
	tables := []fmt.Stringer{
		t3, t4,
		RunTable5(env, 500, sample),
		RunTable6(env, docs/2, 1, env.World.Config.WikiaPages, sample),
		RunTable9(env, 120),
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(dropTimingColumns(tb.String()))
		b.WriteString("\n")
	}
	return b.String()
}

// dropTimingColumns removes every column whose header starts with "ms/"
// from the tables in a rendered text. Column extents come from the dashed
// separator line under each header; they are counted in runes, as the
// renderer pads them.
func dropTimingColumns(text string) string {
	lines := strings.Split(text, "\n")
	var out []string
	var cols [][2]int // [start, end) rune extents of the columns to drop
	for i, line := range lines {
		if i+1 < len(lines) && strings.HasPrefix(lines[i+1], "---") {
			cols = timingColumns([]rune(line), []rune(lines[i+1]))
		} else if line == "" {
			cols = nil
		}
		r := []rune(line)
		for k := len(cols) - 1; k >= 0; k-- {
			start, end := cols[k][0], min(cols[k][1], len(r))
			if start < len(r) {
				r = append(r[:start:start], r[end:]...)
			}
		}
		out = append(out, string(r))
	}
	return strings.Join(out, "\n")
}

// timingColumns returns the rune extents (cell plus its padding) of the
// "ms/" columns of one header line, located by its separator line.
func timingColumns(header, sep []rune) [][2]int {
	var cols [][2]int
	for start := 0; start < len(sep); {
		end := start
		for end < len(sep) && sep[end] == '-' {
			end++
		}
		for end < len(sep) && sep[end] == ' ' {
			end++
		}
		if strings.HasPrefix(string(header[start:min(end, len(header))]), "ms/") {
			cols = append(cols, [2]int{start, end})
		}
		start = end
	}
	return cols
}
