package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swquake/internal/cgexec"
	"swquake/internal/compress"
	"swquake/internal/cpu"
	"swquake/internal/decomp"
	"swquake/internal/faultinject"
	"swquake/internal/grid"
	"swquake/internal/manifest"
	"swquake/internal/model"
	"swquake/internal/scenario"
)

func TestParseProcGrid(t *testing.T) {
	mx, my, err := parseProcGrid("2x3")
	if err != nil || mx != 2 || my != 3 {
		t.Fatalf("2x3 -> %d,%d,%v", mx, my, err)
	}
	for _, bad := range []string{"", "2", "2x", "x3", "2x3x4", "ax2", "0x3", "-1x2"} {
		if _, _, err := parseProcGrid(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseMethod(t *testing.T) {
	cases := map[string]compress.Method{
		"half":       compress.Half,
		"adaptive":   compress.Adaptive,
		"normalized": compress.Normalized,
	}
	for s, want := range cases {
		got, err := parseMethod(s)
		if err != nil || got != want {
			t.Errorf("%q -> %v, %v", s, got, err)
		}
	}
	if _, err := parseMethod("zstd"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestRunProgressFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scenario", "quickstart", "-steps", "30", "-progress"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "step 30/30") {
		t.Fatalf("progress output missing final step line:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "max|v|=") || strings.Contains(buf.String(), "max|v|=0 ") {
		t.Fatalf("progress output missing a moving max |v|:\n%s", buf.String())
	}
}

func TestRunQuickstartEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-scenario", "quickstart", "-steps", "30", "-out", dir}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "station-0") {
		t.Fatal("station report missing")
	}
	for _, f := range []string{"trace-station-0.csv", "spectrum-station-0.csv", "pgv.pgm", "intensity.pgm", "run.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("output %s missing: %v", f, err)
		}
	}
}

func TestRunTangshanWithModelFile(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "m.swvm")
	g := model.NewGridModel(model.ScaledTangshan(20000, 20000, 4000), 10, 10, 8, 2200, 2200, 570)
	if err := model.SaveGridModel(mpath, g); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-scenario", "tangshan", "-nx", "24", "-ny", "24", "-nz", "10",
		"-dx", "900", "-steps", "20", "-model", mpath, "-qs", "50"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "using velocity model") {
		t.Fatal("model load not reported")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scenario", "nope"}, &buf); err == nil {
		t.Fatal("bad scenario accepted")
	}
	if err := run([]string{"-compress", "gzip"}, &buf); err == nil {
		t.Fatal("bad compression accepted")
	}
	if err := run([]string{"-parallel", "zz"}, &buf); err == nil {
		t.Fatal("bad parallel accepted")
	}
	if err := run([]string{"-model", "/does/not/exist"}, &buf); err == nil {
		t.Fatal("missing model accepted")
	}
}

// TestRunRefusesSnapshotsOnRanks: surface snapshots are taken by the serial
// loop, so a parallel run asked for them is refused, naming both flags,
// rather than run without writing any.
func TestRunRefusesSnapshotsOnRanks(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-scenario", "quickstart", "-steps", "20", "-snapshots", "5",
		"-parallel", "2x1", "-out", dir}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-snapshots") || !strings.Contains(err.Error(), "-parallel") {
		t.Fatalf("-snapshots with -parallel: %v; want an error naming both flags", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("refused run wrote %d files", len(entries))
	}
}

// TestRunRefusesRankFlagsWithoutRanks: the fault budget, the step deadline
// and the overlapped halo exchange act on the ranks of a
// -parallel run alone, so a serial run asked for any of them is refused,
// naming the flag and the one-block grid that has them, before it runs a
// step or writes a file.
func TestRunRefusesRankFlagsWithoutRanks(t *testing.T) {
	for _, flag := range [][]string{{"-fault-retries", "2"}, {"-step-deadline", "1s"}, {"-overlap"}} {
		dir := t.TempDir()
		var buf bytes.Buffer
		args := append([]string{"-scenario", "quickstart", "-steps", "20", "-checkpoint-every", "10", "-out", dir}, flag...)
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), flag[0]) || !strings.Contains(err.Error(), "-parallel 1x1") {
			t.Fatalf("%s without -parallel: %v; want an error naming it and -parallel 1x1", flag[0], err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("%s: refused run wrote %d files", flag[0], len(entries))
		}
	}
}

// TestRunFaultDrillRecovers drives the self-healing engine from the CLI:
// an injected halo corruption (every frame is sealed) with a -fault-retries
// budget and checkpoints on disk must recover in-run and report the
// recovery.
func TestRunFaultDrillRecovers(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-scenario", "quickstart", "-steps", "40",
		"-parallel", "2x1", "-fault-retries", "3",
		"-checkpoint-every", "15", "-out", dir,
		"-faults", "halo/corrupt:times=1,skip=80"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fault injection armed") {
		t.Fatalf("arming not reported:\n%s", out)
	}
	if !strings.Contains(out, "engine fault recovered: halo-corrupt") {
		t.Fatalf("recovery not reported:\n%s", out)
	}
	if !strings.Contains(out, "frame checksum mismatch") {
		t.Fatalf("recovery reported without its cause:\n%s", out)
	}
	if !strings.Contains(out, "done in") {
		t.Fatalf("run did not finish:\n%s", out)
	}
}

// TestRunRejectsBadFaultSpec: a typo'd failpoint name fails fast with the
// valid vocabulary instead of silently arming nothing.
func TestRunRejectsBadFaultSpec(t *testing.T) {
	defer faultinject.Reset()
	var buf bytes.Buffer
	err := run([]string{"-scenario", "quickstart", "-steps", "10",
		"-faults", "halo/corupt:times=1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "unknown failpoint") {
		t.Fatalf("bad fault spec: %v", err)
	}
}

func TestRunTimingFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scenario", "quickstart", "-steps", "30", "-timing",
		"-checkpoint-every", "10", "-out", t.TempDir()}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stage", "velocity", "stress", "accounted",
		"row kernels: " + cpu.KernelPath(), "checkpoint lane: 3 dumps written in"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timing table missing %q:\n%s", want, out)
		}
	}
}

// outputLine returns the first line of out that starts with prefix.
func outputLine(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no %q line in:\n%s", prefix, out)
	return ""
}

const sunwayLine = "simulated SW26010 core group:"

// TestResumedRunReportsItsOwnSteps: a run resumed half way reports its rates
// over the steps it ran, not over the whole simulation's — its simulated
// core-group step is the uninterrupted run's, and its point-step rate and
// the bytes it touched are over its 20 steps, not 40 — while run.json's
// flops and yielded point-steps are the whole simulation's.
func TestResumedRunReportsItsOwnSteps(t *testing.T) {
	dir, again := t.TempDir(), t.TempDir()
	args := []string{"-scenario", "tangshan", "-nx", "64", "-ny", "62", "-nz", "24", "-steps", "40", "-nonlinear", "-sunway", "-timing"}
	var whole, resumed bytes.Buffer
	if err := run(append(args, "-checkpoint-every", "20", "-out", dir), &whole); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-restart", filepath.Join(dir, "ckpt-00000020.swq"), "-out", again), &resumed); err != nil {
		t.Fatal(err)
	}
	a, err := manifest.Load(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := manifest.Load(filepath.Join(again, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Flops == 0 || b.Flops != a.Flops || b.YieldedPointSteps != a.YieldedPointSteps {
		t.Errorf("resumed run.json: %d flops, %d yielded point-steps; uninterrupted %d and %d",
			b.Flops, b.YieldedPointSteps, a.Flops, a.YieldedPointSteps)
	}
	if a, b := outputLine(t, whole.String(), sunwayLine), outputLine(t, resumed.String(), sunwayLine); a != b {
		t.Errorf("resumed run reports\n%s\nuninterrupted\n%s", b, a)
	}
	// "done in X s (R Mpoint-steps/s)": X and R are rounded to 0.01 and 0.1,
	// so the point-steps run lie between the products of their bounds
	var secs, rate float64
	if _, err := fmt.Sscanf(outputLine(t, resumed.String(), "done in"), "done in %f s (%f Mpoint-steps/s)", &secs, &rate); err != nil {
		t.Fatal(err)
	}
	ran := 64 * 62 * 24 * 20 / 1e6
	if lo, hi := (rate-0.05)*(secs-0.005), (rate+0.05)*(secs+0.005); ran < lo || ran > hi {
		t.Errorf("resumed run: %.1f Mpoint-steps/s over %.2f s is not %.2f Mpoint-steps run", rate, secs, ran)
	}
	// "stages total T s over W s wall" and "bytes touched: B B/point/step, G
	// GB/s effective over the run": G over W s is B bytes a point-step run,
	// each rounded to its last printed digit
	var total, wall, perPoint, gbps float64
	if _, err := fmt.Sscanf(outputLine(t, resumed.String(), "stages total"), "stages total %f s over %f s wall", &total, &wall); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(outputLine(t, resumed.String(), "bytes touched:"),
		"bytes touched: %f B/point/step, %f GB/s effective over the run", &perPoint, &gbps); err != nil {
		t.Fatal(err)
	}
	if lo, hi := (gbps-0.05)*(wall-5e-5), (gbps+0.05)*(wall+5e-5); (perPoint+0.05)*ran/1e3 < lo || (perPoint-0.05)*ran/1e3 > hi {
		t.Errorf("resumed run: %.1f GB/s over %.4f s is not %.1f B a point-step over %.2f Mpoint-steps run", gbps, wall, perPoint, ran)
	}
}

// TestSunwayReportsOneCoreGroup: -sunway reports one step of one core
// group's block, the one-step tally of the whole domain serially and of one
// rank's block under -parallel, where the core groups step at once — not
// the ranks' tallies added up.
func TestSunwayReportsOneCoreGroup(t *testing.T) {
	sunway := func(args ...string) string {
		var buf bytes.Buffer
		if err := run(append([]string{"-scenario", "quickstart", "-steps", "20", "-sunway"}, args...), &buf); err != nil {
			t.Fatal(err)
		}
		return outputLine(t, buf.String(), sunwayLine)
	}
	tally := func(block grid.Dims) string {
		s, cfg, err := cgexec.Tally(block)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s %.2f ms/step, %.1f GB/s effective DMA, LDM peak %d B",
			sunwayLine, 1e3*s.StepSeconds(), s.EffectiveBandwidth(), cfg.LDMBytesUsed)
	}
	cfg, err := scenario.Build("quickstart", scenario.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := decomp.NewProcessGrid(cfg.Dims.Nx, cfg.Dims.Ny, cfg.Dims.Nz, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	serial, ranks := sunway(), sunway("-parallel", "2x2")
	if want := tally(cfg.Dims); serial != want {
		t.Errorf("serial run reports\n%s\nwant the domain's one-step tally\n%s", serial, want)
	}
	if want := tally(pg.BlockDims()); ranks != want {
		t.Errorf("-parallel 2x2 reports\n%s\nwant one %v block's one-step tally\n%s", ranks, pg.BlockDims(), want)
	}
	if ranks == serial {
		t.Errorf("-parallel 2x2 reports the whole domain's core group: %s", ranks)
	}
}

// TestRunRefusesSunwayWithCompression: the core-group tally models the
// float32 traffic of uncompressed storage, so -sunway with any compressed
// storage is refused, naming both flags, before the run writes a file.
func TestRunRefusesSunwayWithCompression(t *testing.T) {
	for _, method := range []string{"half", "adaptive", "normalized"} {
		dir := t.TempDir()
		var buf bytes.Buffer
		err := run([]string{"-scenario", "quickstart", "-steps", "20", "-sunway", "-compress", method,
			"-checkpoint-every", "10", "-out", dir}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-sunway") || !strings.Contains(err.Error(), "-compress "+method) {
			t.Fatalf("-sunway -compress %s: %v; want an error naming both flags", method, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("-compress %s: refused run wrote %d files", method, len(entries))
		}
	}
}
