package lz4

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	comp := CompressAlloc(src)
	got, err := DecompressAlloc(comp, len(src))
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: len %d vs %d", len(got), len(src))
	}
	return comp
}

func TestEmpty(t *testing.T) {
	comp := CompressAlloc(nil)
	if len(comp) != 0 {
		t.Fatalf("empty input compressed to %d bytes", len(comp))
	}
	out, err := DecompressAlloc(comp, 0)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty decompress: %v %d", err, len(out))
	}
}

func TestTinyInputsAreLiterals(t *testing.T) {
	for n := 1; n <= 13; n++ {
		src := bytes.Repeat([]byte{'a'}, n)
		comp := roundTrip(t, src)
		if len(comp) < n {
			t.Fatalf("tiny input of %d bytes impossibly compressed to %d", n, len(comp))
		}
	}
}

func TestHighlyCompressible(t *testing.T) {
	src := bytes.Repeat([]byte{'x'}, 100000)
	comp := roundTrip(t, src)
	if r := Ratio(len(src), len(comp)); r < 100 {
		t.Fatalf("RLE ratio %f too low (compressed %d)", r, len(comp))
	}
}

func TestRepeatedPhrase(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 500))
	comp := roundTrip(t, src)
	if r := Ratio(len(src), len(comp)); r < 5 {
		t.Fatalf("phrase ratio %f too low", r)
	}
}

func TestIncompressibleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 50000)
	rng.Read(src)
	comp := roundTrip(t, src)
	// random bytes must not blow up beyond the bound
	if len(comp) > CompressBound(len(src)) {
		t.Fatalf("compressed %d beyond bound %d", len(comp), CompressBound(len(src)))
	}
}

func TestFloat32FieldData(t *testing.T) {
	// checkpoint-like payload: smooth wavefield floats
	src := make([]byte, 0, 4*10000)
	for i := 0; i < 10000; i++ {
		v := float32(math.Sin(float64(i) * 0.001))
		bits := math.Float32bits(v)
		src = append(src, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	roundTrip(t, src)
}

func TestZerosFieldCompressesHard(t *testing.T) {
	// a quiescent wavefield (all zeros) is the checkpoint best case
	src := make([]byte, 1<<20)
	comp := roundTrip(t, src)
	if r := Ratio(len(src), len(comp)); r < 200 {
		t.Fatalf("zero field ratio %f", r)
	}
}

func TestLongMatchExtendedLength(t *testing.T) {
	// matchLen >> 15+4 exercises extended match length encoding
	src := append([]byte("abcdefgh"), bytes.Repeat([]byte("abcdefgh"), 1000)...)
	roundTrip(t, src)
}

func TestLongLiteralRun(t *testing.T) {
	// >15 literals exercises extended literal length encoding
	rng := rand.New(rand.NewSource(2))
	lit := make([]byte, 1000)
	rng.Read(lit)
	src := append(lit, bytes.Repeat([]byte("repeatrepeat"), 100)...)
	roundTrip(t, src)
}

func TestOffsetAtMax(t *testing.T) {
	// construct data with the only match exactly maxOffset back
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, maxOffset+64)
	rng.Read(src)
	copy(src[maxOffset:], src[:40]) // match 65535 bytes back
	roundTrip(t, src)
}

func TestDecompressCorruptInputs(t *testing.T) {
	cases := [][]byte{
		{0x00, 0x01},             // match with no offset bytes... token 0: 0 literals then needs offset
		{0x10},                   // 1 literal promised, none present
		{0x0f, 0xff},             // runaway extended match length
		{0xf0, 0xff},             // runaway extended literal length
		{0x00, 0x00, 0x00, 0x00}, // offset 0 is invalid
	}
	dst := make([]byte, 64)
	for i, src := range cases {
		if _, err := Decompress(dst, src); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

func TestDecompressOffsetBeyondStart(t *testing.T) {
	// token: 4 literals then match at offset 200 into nothing
	src := []byte{0x40, 'a', 'b', 'c', 'd', 200, 0}
	dst := make([]byte, 64)
	if _, err := Decompress(dst, src); err == nil {
		t.Fatal("offset beyond output start accepted")
	}
}

func TestDecompressShortDst(t *testing.T) {
	src := CompressAlloc(bytes.Repeat([]byte{'q'}, 1000))
	dst := make([]byte, 10)
	if _, err := Decompress(dst, src); err == nil {
		t.Fatal("short destination accepted")
	}
}

func TestDecompressAllocWrongLength(t *testing.T) {
	src := CompressAlloc([]byte("hello world, hello world, hello world"))
	if _, err := DecompressAlloc(src, 1000); err == nil {
		t.Fatal("wrong original length accepted")
	}
}

func TestCompressShortDstRejected(t *testing.T) {
	dst := make([]byte, 4)
	if _, err := Compress(dst, bytes.Repeat([]byte{'z'}, 100)); err != ErrShortBuffer {
		t.Fatal("short compress destination accepted")
	}
}

func TestCompressBoundMonotone(t *testing.T) {
	prev := 0
	for _, n := range []int{0, 1, 100, 255, 256, 1 << 16, 1 << 20} {
		b := CompressBound(n)
		if b <= prev && n > 0 {
			t.Fatalf("bound not monotone at %d", n)
		}
		if b < n {
			t.Fatalf("bound %d below input %d", b, n)
		}
		prev = b
	}
}

func TestQuickRoundTrip(t *testing.T) {
	fn := func(data []byte) bool {
		comp := CompressAlloc(data)
		out, err := DecompressAlloc(comp, len(data))
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripCompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fn := func(seedByte uint8, n uint16) bool {
		// generate compressible data: random walk bytes
		src := make([]byte, int(n)+20)
		v := seedByte
		for i := range src {
			if rng.Intn(4) == 0 {
				v += uint8(rng.Intn(3)) - 1
			}
			src[i] = v
		}
		comp := CompressAlloc(src)
		out, err := DecompressAlloc(comp, len(src))
		return err == nil && bytes.Equal(out, src)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioHelper(t *testing.T) {
	if Ratio(100, 50) != 2 {
		t.Fatal("Ratio wrong")
	}
	if Ratio(100, 0) != 0 {
		t.Fatal("Ratio div by zero")
	}
}

// refDecompress is the byte-at-a-time decoder Decompress replaced: the
// reference for overlapping-match semantics. It trusts its input.
func refDecompress(dst, src []byte) int {
	dn, sn := 0, 0
	for sn < len(src) {
		tok := src[sn]
		sn++
		litLen := int(tok >> 4)
		if litLen == 15 {
			n, v, _ := getLenExt(src[sn:])
			sn += n
			litLen += v
		}
		dn += copy(dst[dn:], src[sn:sn+litLen])
		sn += litLen
		if sn == len(src) {
			break
		}
		offset := int(src[sn]) | int(src[sn+1])<<8
		sn += 2
		matchLen := int(tok&0xf) + minMatch
		if tok&0xf == 15 {
			n, v, _ := getLenExt(src[sn:])
			sn += n
			matchLen += v
		}
		for i := 0; i < matchLen; i++ {
			dst[dn+i] = dst[dn-offset+i]
		}
		dn += matchLen
	}
	return dn
}

// TestDecompressOverlappingMatches builds blocks by hand whose match reaches
// into its own output (offset < length, the format's RLE) for every small
// offset and for lengths across several doublings, and holds the decoder to
// the byte-at-a-time reference.
func TestDecompressOverlappingMatches(t *testing.T) {
	lits := []byte("abcdefghij")
	for offset := 1; offset <= len(lits); offset++ {
		for _, matchLen := range []int{4, 5, 7, 8, 9, 15, 16, 17, 19, 31, 32, 33, 64, 100, 300, 1000} {
			blk := make([]byte, 64)
			n := emitSequence(blk, lits, offset, matchLen)
			n += emitFinalLiterals(blk[n:], []byte("vwxyz"))
			blk = blk[:n]

			want := make([]byte, len(lits)+matchLen+5)
			if got := refDecompress(want, blk); got != len(want) {
				t.Fatalf("offset %d len %d: reference wrote %d of %d", offset, matchLen, got, len(want))
			}
			got, err := DecompressAlloc(blk, len(want))
			if err != nil {
				t.Fatalf("offset %d len %d: %v", offset, matchLen, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("offset %d len %d: decoder differs from the byte-wise reference", offset, matchLen)
			}
			// one byte short of room: the bounds check, not a partial copy
			if _, err := Decompress(make([]byte, len(want)-6), blk); err != ErrCorrupt {
				t.Fatalf("offset %d len %d: short destination gave %v", offset, matchLen, err)
			}
		}
	}
}
