package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/core"
	"swquake/internal/fd"
	"swquake/internal/scenario"
)

// dumpCases are the runs whose dumps must not depend on the decomposition:
// the quickstart, and a small nonlinear Tangshan stored through adaptive
// compression.
func dumpCases(t *testing.T) map[string]core.Config {
	t.Helper()
	quick, err := scenario.Build("quickstart", scenario.Overrides{Steps: 30})
	if err != nil {
		t.Fatal(err)
	}
	tangshan, err := scenario.Build("tangshan", scenario.Overrides{Nx: 32, Ny: 30, Nz: 12, Dx: 1000, Steps: 30, Nonlinear: true})
	if err != nil {
		t.Fatal(err)
	}
	tangshan.Compression = compress.Adaptive
	return map[string]core.Config{"quickstart": quick, "tangshan-nonlinear-adaptive": tangshan}
}

// runOn runs cfg serially (1x1) or on mx x my ranks.
func runOn(t *testing.T, cfg core.Config, mx, my int) *core.Result {
	t.Helper()
	var res *core.Result
	var err error
	if mx*my == 1 {
		var sim *core.Simulator
		if sim, err = core.New(cfg); err == nil {
			res, err = sim.Run()
		}
	} else {
		res, err = core.RunParallel(cfg, mx, my)
	}
	if err != nil {
		t.Fatalf("%dx%d: %v", mx, my, err)
	}
	return res
}

// TestDumpIsTheSameBytesWhoeverWroteIt: a step's dump is one file whatever
// the decomposition — the serial run, 2x1 and 2x2 ranks write the same
// bytes at steps 15 and 30.
func TestDumpIsTheSameBytesWhoeverWroteIt(t *testing.T) {
	for name, cfg := range dumpCases(t) {
		dumps := map[string][2][]byte{}
		for _, grid := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
			run := cfg
			run.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: 15}
			runOn(t, run, grid[0], grid[1])
			var got [2][]byte
			for i, step := range []int{15, 30} {
				data, err := os.ReadFile(filepath.Join(run.Checkpoint.Dir, fmt.Sprintf("ckpt-%08d.swq", step)))
				if err != nil {
					t.Fatal(err)
				}
				got[i] = data
			}
			dumps[fmt.Sprintf("%dx%d", grid[0], grid[1])] = got
		}
		for _, grid := range []string{"2x1", "2x2"} {
			for i, step := range []int{15, 30} {
				if !bytes.Equal(dumps[grid][i], dumps["1x1"][i]) {
					t.Errorf("%s: the %s dump of step %d (%d B) differs from the serial one (%d B)",
						name, grid, step, len(dumps[grid][i]), len(dumps["1x1"][i]))
				}
			}
		}
	}
}

// TestOldLayoutDumpResumes: a dump in the layout serial runs used to write
// — the whole padded wavefield, ghost planes included, and a resume section
// whose recorder-step word is set — resumes to the uninterrupted run's
// bits, serially and on 2x1 ranks.
func TestOldLayoutDumpResumes(t *testing.T) {
	for name, cfg := range dumpCases(t) {
		want := runOn(t, cfg, 1, 1)

		// the state at step 15: the serial wavefield as it stands, and the
		// resume section today's dump carries with its step word filled in
		// (the run keeps its step count: compressed storage calibrates its
		// codecs on it)
		dumped := cfg
		dumped.Checkpoint = &checkpoint.Controller{Dir: t.TempDir(), Interval: 15, Keep: 2}
		runOn(t, dumped, 1, 1)
		_, _, cur, aux, err := checkpoint.LoadAux(filepath.Join(dumped.Checkpoint.Dir, "ckpt-00000015.swq"))
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(aux[60:], 15)
		sim, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for sim.StepCount() < 15 {
			sim.Step()
		}

		old := &checkpoint.Controller{Dir: t.TempDir(), Interval: 15}
		whole := func(snap *fd.Wavefield) error {
			from := sim.WF.AllFields()
			for i, f := range snap.AllFields() {
				copy(f.Data, from[i].Data)
			}
			return nil
		}
		if _, err := old.MaybeSave(15, sim.Time(), sim.WF.D, whole, aux); err != nil {
			t.Fatal(err)
		}
		if _, err := old.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, padded, _, err := checkpoint.LoadAux(old.Latest())
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i, f := range padded.AllFields() {
			same = same && sameFloats(f.Data, cur.AllFields()[i].Data)
		}
		if same {
			t.Fatalf("%s: the padded dump equals today's: its ghost planes are zero and the case pins nothing", name)
		}

		for _, grid := range [][2]int{{1, 1}, {2, 1}} {
			resumed := cfg
			resumed.RestartFrom = old.Latest()
			sameResults(t, fmt.Sprintf("%s resumed %dx%d", name, grid[0], grid[1]), runOn(t, resumed, grid[0], grid[1]), want)
		}
	}
}

// sameResults compares traces, PGV and the yield count bit for bit.
func sameResults(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if got.Steps != want.Steps || got.YieldedPointSteps != want.YieldedPointSteps {
		t.Fatalf("%s: %d steps, %d yielded; want %d, %d", label, got.Steps, got.YieldedPointSteps, want.Steps, want.YieldedPointSteps)
	}
	for _, w := range want.Recorder.Traces {
		g := got.Recorder.Trace(w.Station.Name)
		if g == nil || !sameFloats(g.U, w.U) || !sameFloats(g.V, w.V) || !sameFloats(g.W, w.W) {
			t.Fatalf("%s: trace %s differs", label, w.Station.Name)
		}
	}
	for i, v := range want.PGV.PGV {
		if math.Float64bits(got.PGV.PGV[i]) != math.Float64bits(v) {
			t.Fatalf("%s: PGV[%d] = %g, want %g", label, i, got.PGV.PGV[i], v)
		}
	}
}

func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
