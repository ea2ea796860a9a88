package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-table", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("table 3 output missing")
	}
	if strings.Contains(buf.String(), "Fig 8") {
		t.Fatal("unrequested figure printed")
	}
}

func TestRunSingleFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "weak scaling") {
		t.Fatal("fig 8 output missing")
	}
}

func TestRunAblations(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-ablations"}, &buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "array fusion") || !strings.Contains(s, "compression methods") {
		t.Fatalf("ablation output missing: %s", s[:200])
	}
	if !strings.Contains(s, "DIVERGED") {
		t.Fatal("method-1 overflow not reported")
	}
}

func TestRunRejectsBadSelection(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Fatal("empty selection accepted")
	}
	if err := run([]string{"-table", "9"}, &buf); err == nil {
		t.Fatal("table 9 accepted")
	}
	if err := run([]string{"-fig", "3"}, &buf); err == nil {
		t.Fatal("figure 3 accepted")
	}
}

func TestFigureCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-fig", "8", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "9", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig8.csv", "fig9.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), ",") {
			t.Fatalf("%s not CSV", f)
		}
	}
}
