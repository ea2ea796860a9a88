package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildFixedRegistry builds a registry over deterministic sample functions,
// including the escaping edge cases the exposition format defines.
func buildFixedRegistry() *Registry {
	r := NewRegistry()
	r.CounterFunc("swq_jobs_done_total", "Jobs completed successfully.", func() float64 { return 42 })
	r.GaugeFunc("swq_queue_depth", "Jobs waiting in the queue.", func() float64 { return 3 })
	r.GaugeFunc("swq_ratio", `Help with a \ backslash
and a newline.`, func() float64 { return 0.25 })
	r.LabeledCounterFunc("swq_stage_seconds_total", "Wall seconds per pipeline stage.", "stage",
		func() map[string]float64 {
			return map[string]float64{
				"velocity":     1.5,
				"stress":       2.25,
				`we"ird\stage`: 1,
				"multi\nline":  2,
			}
		})
	h := r.Histogram("swq_job_duration_seconds", "Job wall time.", []float64{0.1, 0.5, 1})
	h.Observe(0.05)
	h.Observe(0.5) // le edge: lands in the 0.5 bucket
	h.Observe(3)   // +Inf
	return r
}

func TestPromExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), want)
	}
}

// sampleLine is the exposition-format sample syntax promtool accepts:
// name, optional single-label set, and a float value.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*")*\})? [0-9eE+.\-]+(e[+-]?[0-9]+)?$`)

// TestPromExpositionWellFormed lint-checks the rendered text the way
// promtool does: every line is a HELP/TYPE comment or a sample matching the
// format grammar, every sample's family has a preceding TYPE, and no escape
// sequences outside \\, \" and \n appear in label values.
func TestPromExpositionWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	typed := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: bad metric type %q", i+1, parts[3])
			}
			typed[parts[2]] = true
		case strings.HasPrefix(line, "# HELP "):
			if len(strings.Fields(line)) < 3 {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", i+1, line)
		default:
			if !sampleLine.MatchString(line) {
				t.Fatalf("line %d: sample does not match exposition grammar: %q", i+1, line)
			}
			name := line[:strings.IndexAny(line, "{ ")]
			family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if !typed[name] && !typed[family] {
				t.Fatalf("line %d: sample %q has no TYPE declaration", i+1, name)
			}
		}
	}
}

func TestPromHistogramCumulativeBuckets(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE h histogram`,
		`h_bucket{le="1"} 1`,
		`h_bucket{le="2"} 2`,
		`h_bucket{le="+Inf"} 3`,
		fmt.Sprintf("h_sum %g", 0.5+1.5+9),
		`h_count 3`,
	}, "\n") + "\n"
	if buf.String() != want {
		t.Fatalf("histogram exposition:\n got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestPromEscaping(t *testing.T) {
	if got := escapeLabel(`a\b"c` + "\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("label escaping: %q", got)
	}
	if got := escapeHelp("a\\b\nc"); got != `a\\b\nc` {
		t.Fatalf("help escaping: %q", got)
	}
}
