package checkpoint_test

import (
	"path/filepath"
	"testing"

	"swquake/internal/checkpoint"
	"swquake/internal/core"
	"swquake/internal/fd"
	"swquake/internal/scenario"
)

// quickstartWavefield is the state a quaked job dumps at its first
// auto-checkpoint: the quickstart scenario after the given number of steps.
func quickstartWavefield(tb testing.TB, steps int) *fd.Wavefield {
	tb.Helper()
	cfg := scenario.Quickstart()
	cfg.Steps = steps
	sim, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		tb.Fatal(err)
	}
	return sim.WF
}

// BenchmarkSaveAux is the whole cost of one dump with every check and fsync
// kept: float→byte, LZ4, CRCs, temp file, fsync, rename, directory sync.
// It reports ms/dump beside the raw MB/s.
func BenchmarkSaveAux(b *testing.B) {
	wf := quickstartWavefield(b, 25)
	aux := make([]byte, 4096)
	path := filepath.Join(b.TempDir(), "bench.swq")
	b.SetBytes(wf.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.SaveAux(path, 25, 0.25, wf, aux); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/dump")
}
