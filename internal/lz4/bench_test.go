package lz4_test

import (
	"encoding/binary"
	"math"
	"testing"

	"swquake/internal/core"
	"swquake/internal/lz4"
	"swquake/internal/scenario"
)

// wavefieldBytes is what the checkpoint layer hands the compressor: the nine
// fields of the quickstart wavefield after the given number of steps (the
// state of a quaked job at its first auto-checkpoint when steps = 25), each
// as little-endian float32 bytes including the halo padding.
func wavefieldBytes(tb testing.TB, steps int) [][]byte {
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
	var fields [][]byte
	for _, f := range sim.WF.AllFields() {
		raw := make([]byte, 4*len(f.Data))
		for i, v := range f.Data {
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
		}
		fields = append(fields, raw)
	}
	return fields
}

// BenchmarkCompressWavefield compresses the nine fields of one quickstart
// dump; ns/op is the codec's share of a checkpoint.
func BenchmarkCompressWavefield(b *testing.B) {
	fields := wavefieldBytes(b, 25)
	raw, comp := 0, 0
	dst := make([]byte, lz4.CompressBound(len(fields[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, comp = 0, 0
		for _, f := range fields {
			n, err := lz4.Compress(dst, f)
			if err != nil {
				b.Fatal(err)
			}
			raw += len(f)
			comp += n
		}
	}
	b.SetBytes(int64(raw))
	b.ReportMetric(lz4.Ratio(raw, comp), "ratio")
}

// BenchmarkDecompressWavefield is the restart side of the same dump.
func BenchmarkDecompressWavefield(b *testing.B) {
	fields := wavefieldBytes(b, 25)
	comps := make([][]byte, len(fields))
	for i, f := range fields {
		comps[i] = lz4.CompressAlloc(f)
	}
	dst := make([]byte, len(fields[0]))
	b.SetBytes(int64(len(fields) * len(fields[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range comps {
			if _, err := lz4.Decompress(dst, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}
