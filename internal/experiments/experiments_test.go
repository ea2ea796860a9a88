package experiments

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
)

func TestTable1ByteFlopRatio(t *testing.T) {
	var buf bytes.Buffer
	ratio := Table1(&buf)
	if ratio < 4.5 || ratio > 6.5 {
		t.Fatalf("Titan/TaihuLight byte-to-flop ratio %g, paper says ~5", ratio)
	}
	if !strings.Contains(buf.String(), "TaihuLight") {
		t.Fatal("table text missing")
	}
}

func TestTable2Prints(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf)
	for _, s := range []string{"AWP-ODC", "SeisSol", "15.2/18.9"} {
		if !strings.Contains(buf.String(), s) {
			t.Fatalf("table 2 missing %q", s)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	rows := Table3(io.Discard)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// spot-check against the paper's measurements
	if rows[0].Get1 != 3.28 || rows[3].Put4 != 133 {
		t.Fatalf("table 3 values drifted: %+v", rows)
	}
	// bandwidth must rise with block size in every column
	for i := 1; i < len(rows); i++ {
		if rows[i].Get4 <= rows[i-1].Get4 || rows[i].Put1 <= rows[i-1].Put1 {
			t.Fatal("table 3 not monotone")
		}
	}
}

func TestTable4Shape(t *testing.T) {
	rows := Table4(io.Discard)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Effective <= 0 || r.Effective > r.Peak {
			t.Fatalf("row %s out of range", r.Name)
		}
	}
}

// TestTable4PrintsItsUnits: each row's numbers are printed with its unit.
func TestTable4PrintsItsUnits(t *testing.T) {
	var buf bytes.Buffer
	Table4(&buf)
	for _, row := range []struct{ name, unit string }{
		{"Computing Performance", "Gflops"},
		{"Memory Size", "GB"},
		{"Memory Bandwidth", "GB/s"},
		{"LDM Size", "KB"},
	} {
		var line string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(l, row.name) {
				line = l
			}
		}
		if !slices.Contains(strings.Fields(line), row.unit) {
			t.Errorf("Table 4 row %q does not name its unit %s:\n%s", row.name, row.unit, buf.String())
		}
	}
}

func TestFig7Bands(t *testing.T) {
	sp := Fig7(io.Discard)
	if len(sp) < 6 {
		t.Fatalf("only %d kernels", len(sp))
	}
	for _, k := range []string{"delcx", "dstrqc", "drprecpc_calc"} {
		if sp[k]["CMPR"] < 28 || sp[k]["CMPR"] > 50 {
			t.Fatalf("%s final speedup %g out of paper band", k, sp[k]["CMPR"])
		}
	}
	if sp["fstr"]["CMPR"] > 6 {
		t.Fatalf("fstr speedup %g should stay ~4-5", sp["fstr"]["CMPR"])
	}
}

func TestFig8Endpoints(t *testing.T) {
	pts := Fig8(io.Discard)
	last := pts[len(pts)-1]
	if last.Procs != 160000 {
		t.Fatalf("last point at %d procs", last.Procs)
	}
	checks := map[string][2]float64{
		"nonlinear":          {14.0, 16.4},
		"linear":             {9.9, 11.6},
		"nonlinear+compress": {17.4, 20.4},
		"linear+compress":    {13.1, 15.3},
	}
	for name, band := range checks {
		v := last.Pflops[name]
		if v < band[0] || v > band[1] {
			t.Fatalf("%s peak %g Pflops outside paper band %v", name, v, band)
		}
	}
	// who wins: nonlinear+compress > nonlinear > linear+compress > linear
	if !(last.Pflops["nonlinear+compress"] > last.Pflops["nonlinear"] &&
		last.Pflops["nonlinear"] > last.Pflops["linear+compress"] &&
		last.Pflops["linear+compress"] > last.Pflops["linear"]) {
		t.Fatalf("ordering wrong: %+v", last.Pflops)
	}
}

func TestFig9SeriesShape(t *testing.T) {
	series := Fig9(io.Discard)
	if len(series) != 12 { // 3 meshes x 4 cases
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if s.Speedups[8000] != 1 {
			t.Fatalf("%s/%s: baseline speedup %g", s.Case, s.Mesh, s.Speedups[8000])
		}
		if s.Speedups[160000] <= s.Speedups[8000] || s.Speedups[160000] > 20 {
			t.Fatalf("%s/%s: 160K speedup %g", s.Case, s.Mesh, s.Speedups[160000])
		}
	}
}

func TestFig6CompressionValidation(t *testing.T) {
	res, err := Fig6(io.Discard, Quick)
	if err != nil {
		t.Fatal(err)
	}
	// near-fault Ninghe: compressed trace tracks the reference closely
	if m := res.Misfit["Ninghe"]; m <= 0 || m > 0.45 {
		t.Fatalf("Ninghe misfit %g outside (0, 0.45]", m)
	}
	if r := res.PeakRatio["Ninghe"]; r < 0.85 || r > 1.15 {
		t.Fatalf("Ninghe peak ratio %g", r)
	}
	// the paper's qualitative finding: the distant station accumulates more
	// error over the longer propagation path, but remains bounded
	if !(res.Misfit["Cangzhou"] > res.Misfit["Ninghe"]) {
		t.Fatalf("distant station should degrade more: Cangzhou %g vs Ninghe %g",
			res.Misfit["Cangzhou"], res.Misfit["Ninghe"])
	}
	if res.Misfit["Cangzhou"] > 2.5 {
		t.Fatalf("Cangzhou misfit %g unbounded", res.Misfit["Cangzhou"])
	}
	// the multi-band GoF lands in the "fair" range at this (noisy) quick
	// configuration and stays well defined
	if res.GoF["Ninghe"] < 3 || res.GoF["Ninghe"] > 10 {
		t.Fatalf("Ninghe GoF %g outside the expected fair band", res.GoF["Ninghe"])
	}
}

func TestFig10Rupture(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig10(&buf, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.RupturedFraction < 0.3 {
		t.Fatalf("rupture fraction %g", res.RupturedFraction)
	}
	if res.RuptureSpeed <= 0 || res.RuptureSpeed >= 5000 {
		t.Fatalf("rupture speed %g", res.RuptureSpeed)
	}
	if res.SourceCount == 0 || res.SeismicMoment <= 0 {
		t.Fatalf("no output: %+v", res)
	}
	if !strings.Contains(buf.String(), "slip-rate snapshot") {
		t.Fatal("snapshot missing")
	}
}

func TestFig11Resolution(t *testing.T) {
	res, err := Fig11(io.Discard, Quick)
	if err != nil {
		t.Fatal(err)
	}
	// the fine run must carry more high-frequency content at the basin
	// station (the paper's central claim for high resolution), by both the
	// time-derivative proxy and the spectral measure
	if res.FineRoughness["Ninghe"] <= res.CoarseRoughness["Ninghe"] {
		t.Fatalf("fine run not richer at Ninghe: %g vs %g",
			res.FineRoughness["Ninghe"], res.CoarseRoughness["Ninghe"])
	}
	if res.HFFractionFine["Ninghe"] <= res.HFFractionCoarse["Ninghe"] {
		t.Fatalf("fine run spectrum not richer above %g Hz: %g vs %g",
			res.HFCut, res.HFFractionFine["Ninghe"], res.HFFractionCoarse["Ninghe"])
	}
	// hazard maps must differ somewhere, but not everywhere
	if res.IntensityChanged <= 0 || res.IntensityChanged > 0.9 {
		t.Fatalf("intensity changed fraction %g", res.IntensityChanged)
	}
	if res.MaxIntensityFine <= 1 || res.MaxIntensityCoarse <= 1 {
		t.Fatal("degenerate hazard maps")
	}
	// the paper's Fig. 11a claim: at coarse resolution even the main pulse
	// is wrong at the basin station — the misfit is large, not subtle
	if res.FullBandMisfit["Ninghe"] < 0.3 {
		t.Fatalf("coarse run suspiciously close to fine: %g", res.FullBandMisfit["Ninghe"])
	}
}

func TestCapability(t *testing.T) {
	var buf bytes.Buffer
	e := Capability(&buf)
	if !e.FitsMemory() {
		t.Fatal("extreme case must fit with compression")
	}
	if !strings.Contains(buf.String(), "time to solution") {
		t.Fatal("capability output incomplete")
	}
}

func TestBaselineComparison(t *testing.T) {
	var buf bytes.Buffer
	titan, taihu := Baseline(&buf)
	if !(taihu > titan) {
		t.Fatalf("headline claim fails: taihu %g <= titan %g", taihu, titan)
	}
	if !strings.Contains(buf.String(), "Titan") {
		t.Fatal("baseline output incomplete")
	}
}

func TestFig11Ladder(t *testing.T) {
	pts, err := Fig11Ladder(io.Discard, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d rungs", len(pts))
	}
	// spacing halves down the ladder
	if !(pts[0].Dx > pts[1].Dx && pts[1].Dx > pts[2].Dx) {
		t.Fatalf("ladder not refining: %v", pts)
	}
	// high-frequency content must grow monotonically with refinement
	if !(pts[2].NingheHF > pts[1].NingheHF && pts[1].NingheHF > pts[0].NingheHF) {
		t.Fatalf("HF content not monotone: %.3f %.3f %.3f",
			pts[0].NingheHF, pts[1].NingheHF, pts[2].NingheHF)
	}
	// and the PGV grows as the basin response is resolved
	if !(pts[2].NinghePGV > pts[0].NinghePGV) {
		t.Fatalf("PGV did not grow with resolution: %g -> %g", pts[0].NinghePGV, pts[2].NinghePGV)
	}
}
