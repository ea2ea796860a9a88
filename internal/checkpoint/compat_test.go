package checkpoint

import (
	"bytes"
	"math"
	"testing"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

// compatDump is a checkpoint of compatState written by the compressor this
// repository had before the match finder moved to a 2^12-entry table (commit
// 8bb5a7d: 2^16 entries, no search stride). The file format did not change,
// so today's decoder must restore it to the same bits — and any later codec
// change must keep doing so. Its name does not end in .swq because
// .gitignore drops those.
const compatDump = "testdata/v2-8bb5a7d.ckpt"

const (
	compatStep = 1234
	compatTime = 13.5
)

// compatState is the wavefield and aux payload compatDump was written from,
// built with exact integer and IEEE operations only so every platform
// derives the same bits: stretches of zeros (the quiet field ahead of the
// wavefront), stretches of hashed mantissas (the field behind it), a few
// repeated values, and the bit patterns a copy must not normalise.
func compatState() (*fd.Wavefield, []byte) {
	wf := fd.NewWavefield(grid.Dims{Nx: 6, Ny: 5, Nz: 7})
	for fi, f := range wf.AllFields() {
		for i := range f.Data {
			h := uint32(i+1)*2654435761 + uint32(fi)*40503
			switch {
			case i%97 < 40:
				// zero
			case i%5 == 0:
				f.Data[i] = float32(int32(h)>>28) / 8
			default:
				f.Data[i] = float32(int32(h)>>8) / 65536
			}
		}
		f.Data[3] = math.Float32frombits(0x80000000)  // -0
		f.Data[50] = math.Float32frombits(0x00000001) // smallest denormal
		f.Data[51] = math.Float32frombits(0x7f800000) // +Inf
		f.Data[52] = math.Float32frombits(0x7fc00001) // a NaN with payload
	}
	aux := make([]byte, 100)
	for i := range aux {
		aux[i] = byte(i * 7)
	}
	return wf, aux
}

func sameBits(a, b *fd.Wavefield) bool {
	bf := b.AllFields()
	for i, f := range a.AllFields() {
		if len(f.Data) != len(bf[i].Data) {
			return false
		}
		for k, v := range f.Data {
			if math.Float32bits(v) != math.Float32bits(bf[i].Data[k]) {
				return false
			}
		}
	}
	return true
}

func TestLoadsDumpWrittenByThePreviousCompressor(t *testing.T) {
	want, wantAux := compatState()
	step, tm, got, aux, err := LoadAux(compatDump)
	if err != nil {
		t.Fatal(err)
	}
	if step != compatStep || tm != compatTime || !bytes.Equal(aux, wantAux) {
		t.Fatalf("step %d time %g aux %d bytes", step, tm, len(aux))
	}
	if !sameBits(got, want) {
		t.Fatal("the old dump restores to different bits")
	}
}
