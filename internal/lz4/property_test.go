package lz4_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"swquake/internal/lz4"
)

// checkCompress holds one input to the compressor's contract: the block fits
// CompressBound, decodes to the input exactly, and is a pure function of the
// input — the same bytes on a second call and from concurrent callers (the
// checkpoint lane compresses beside whatever else the process runs).
func checkCompress(t *testing.T, name string, src []byte) {
	t.Helper()
	comp := lz4.CompressAlloc(src)
	if len(comp) > lz4.CompressBound(len(src)) {
		t.Fatalf("%s: %d bytes compressed to %d, beyond the bound %d", name, len(src), len(comp), lz4.CompressBound(len(src)))
	}
	got, err := lz4.DecompressAlloc(comp, len(src))
	if err != nil {
		t.Fatalf("%s: own output rejected: %v", name, err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("%s: round trip of %d bytes differs", name, len(src))
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if again := lz4.CompressAlloc(src); !bytes.Equal(again, comp) {
				t.Errorf("%s: compressing the same %d bytes again gave a different block", name, len(src))
			}
		}()
	}
	wg.Wait()
}

// TestCompressProperties walks the sizes where the compressor changes
// behaviour — below and around the 12-byte match-finder limit, the 5 final
// literals, every residue of the 8-byte match extension, the 15/255 length
// escapes, the 64-miss stride step and the 64 KB offset window — with
// all-zero, incompressible, periodic and almost-repeating inputs.
func TestCompressProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var sizes []int
	for n := 0; n <= 48; n++ {
		sizes = append(sizes, n)
	}
	for _, c := range []int{64, 255, 270, 4096, 65535 + 12} {
		for n := c - 9; n <= c+9; n++ {
			sizes = append(sizes, n)
		}
	}
	for _, n := range sizes {
		checkCompress(t, "zeros", make([]byte, n))

		noise := make([]byte, n)
		rng.Read(noise)
		checkCompress(t, "noise", noise)

		for _, period := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 23} {
			src := make([]byte, n)
			for i := range src {
				src[i] = noise[i%period]
			}
			checkCompress(t, "periodic", src)
		}
	}

	// a 40-byte phrase repeated with its first difference at every position:
	// each match length from 4 up, so every exit of the 8-byte comparison
	phrase := make([]byte, 40)
	rng.Read(phrase)
	for diff := 0; diff < len(phrase); diff++ {
		for _, tail := range []int{0, 1, 5, 11, 12, 13, 30} {
			src := append([]byte{}, phrase...)
			src = append(src, noise64(rng)...)
			again := append([]byte{}, phrase...)
			again[diff] ^= 0x55
			src = append(src, again...)
			src = append(src, make([]byte, tail)...)
			checkCompress(t, "phrase", src)
		}
	}

	// long incompressible input with islands of repetition: the search
	// stride is several bytes wide when it reaches each island
	src := make([]byte, 300000)
	rng.Read(src)
	for at := 20000; at < len(src)-5000; at += 37000 {
		copy(src[at:at+3000], src[at-9000:])
		for i := at + 3000; i < at+4000; i++ {
			src[i] = 0
		}
	}
	checkCompress(t, "islands", src)
}

func noise64(rng *rand.Rand) []byte {
	b := make([]byte, 64)
	rng.Read(b)
	return b
}

// TestCompressWavefield is the contract on what the checkpoint layer really
// feeds the codec — the nine quickstart fields after 25 steps, zeros ahead of
// the wavefront and mantissa noise behind it — and pins that it still
// compresses.
func TestCompressWavefield(t *testing.T) {
	raw, comp := 0, 0
	for _, f := range wavefieldBytes(t, 25) {
		checkCompress(t, "wavefield", f)
		raw += len(f)
		comp += len(lz4.CompressAlloc(f))
	}
	if r := lz4.Ratio(raw, comp); r < 1.5 {
		t.Fatalf("quickstart dump compresses %.2fx, want at least 1.5x (the 2^16-entry table gave 1.78x)", r)
	}
}
