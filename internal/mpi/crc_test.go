package mpi

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestCRCRoundTrip: seal-then-open returns the payload bit-for-bit, for
// payloads full of awkward float32 bit patterns (NaN, ±Inf, denormals,
// negative zero) that would not survive any arithmetic path.
func TestCRCRoundTrip(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1),          // smallest denormal
		math.Float32frombits(0x7fffffff), // all-ones NaN payload
		math.MaxFloat32, -math.MaxFloat32,
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 7, 511, 512, 513, 1536} {
		payload := make([]float32, n)
		for i := range payload {
			if i < len(specials) {
				payload[i] = specials[i]
			} else {
				payload[i] = math.Float32frombits(rng.Uint32())
			}
		}
		frame := make([]float32, n+1)
		copy(frame, payload)
		SealCRC(frame)
		got, err := OpenCRC(frame)
		if err != nil {
			t.Fatalf("n=%d: OpenCRC on pristine frame: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: payload length %d", n, len(got))
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(payload[i]) {
				t.Fatalf("n=%d word %d: %08x != %08x",
					n, i, math.Float32bits(got[i]), math.Float32bits(payload[i]))
			}
		}
	}
}

// TestCRCPinnedValue pins the checksum of a fixed payload: hashing the
// words where they lie in memory gives the value the byte-staging form
// gave on a little-endian host.
func TestCRCPinnedValue(t *testing.T) {
	p := make([]float32, 1000)
	for i := range p {
		p[i] = math.Float32frombits(uint32(i) * 2654435761)
	}
	if got := ChecksumPayload(p); got != 0xfe6cc25a {
		t.Fatalf("checksum %08x, want fe6cc25a", got)
	}
}

// TestCRCCatchesEverySingleBitFlip: CRC32 guarantees detection of any
// single-bit error; prove it exhaustively on a small frame by flipping each
// of the frame's bits in turn — including the checksum word's own bits —
// and requiring OpenCRC to reject every variant.
func TestCRCCatchesEverySingleBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	payload := make([]float32, 9)
	for i := range payload {
		payload[i] = math.Float32frombits(rng.Uint32())
	}
	frame := make([]float32, len(payload)+1)
	copy(frame, payload)
	SealCRC(frame)

	for word := range frame {
		for bit := 0; bit < 32; bit++ {
			orig := frame[word]
			frame[word] = math.Float32frombits(math.Float32bits(orig) ^ (1 << bit))
			if _, err := OpenCRC(frame); err == nil {
				t.Fatalf("flip word %d bit %d went undetected", word, bit)
			} else if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("flip word %d bit %d: error %v does not wrap ErrFrameCorrupt", word, bit, err)
			}
			frame[word] = orig
		}
	}
	if _, err := OpenCRC(frame); err != nil {
		t.Fatalf("restored frame rejected: %v", err)
	}
}

// TestOpenCRCEmptyFrame: a zero-length frame cannot carry a checksum and is
// corrupt by definition.
func TestOpenCRCEmptyFrame(t *testing.T) {
	if _, err := OpenCRC(nil); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("OpenCRC(nil) = %v, want ErrFrameCorrupt", err)
	}
}

// FuzzOpenCRC: for any byte string reinterpreted as a float32 frame,
// sealing then opening must succeed, and opening after a seeded mutation
// must either change nothing or be detected.
func FuzzOpenCRC(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{1, 2, 3, 4}, uint32(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, uint32(17))
	f.Add([]byte{0, 0, 0x80, 0x7f, 1, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd}, uint32(64))
	f.Fuzz(func(t *testing.T, raw []byte, flip uint32) {
		n := len(raw) / 4
		payload := make([]float32, n)
		for i := 0; i < n; i++ {
			bits := uint32(raw[i*4]) | uint32(raw[i*4+1])<<8 |
				uint32(raw[i*4+2])<<16 | uint32(raw[i*4+3])<<24
			payload[i] = math.Float32frombits(bits)
		}
		frame := make([]float32, n+1)
		copy(frame, payload)
		SealCRC(frame)
		got, err := OpenCRC(frame)
		if err != nil {
			t.Fatalf("pristine frame rejected: %v", err)
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(payload[i]) {
				t.Fatalf("word %d corrupted by seal/open: %08x != %08x",
					i, math.Float32bits(got[i]), math.Float32bits(payload[i]))
			}
		}
		// Single-bit mutation at a fuzz-chosen position must be detected.
		word := int(flip>>5) % len(frame)
		bit := flip & 31
		frame[word] = math.Float32frombits(math.Float32bits(frame[word]) ^ (1 << bit))
		if _, err := OpenCRC(frame); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("flip word %d bit %d undetected (err=%v)", word, bit, err)
		}
	})
}
