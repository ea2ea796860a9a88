package mpi

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

// CRC framing for message payloads: one trailing float32 word carries the
// IEEE CRC32 of the payload's bit patterns, so a frame corrupted anywhere
// in flight (or by a buggy pack/unpack) is detected at the receiver before
// its values reach the solver. The AWP-ODC lineage ships exactly this kind
// of integrity check around every communication phase of its production
// runs; CRC32 guarantees detection of every single-bit error and any burst
// up to 32 bits. The checksum travels as raw bits inside a float32 slot —
// no arithmetic ever touches it, so any 32-bit pattern survives transport.

// ErrFrameCorrupt is wrapped by every OpenCRC checksum failure.
var ErrFrameCorrupt = errors.New("mpi: frame checksum mismatch")

// ChecksumPayload computes the IEEE CRC32 over the payload words' bytes
// where they lie in memory, with no staging copy. Seal and open run in one
// process, so the value only has to agree with itself; on a little-endian
// host it is the CRC32 of the words' little-endian bit patterns.
func ChecksumPayload(p []float32) uint32 {
	return crc32.ChecksumIEEE(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), 4*len(p)))
}

// SealCRC frames buf in place: the last word is overwritten with the CRC32
// of every word before it. The caller allocates the buffer one word longer
// than the payload and packs into buf[:len(buf)-1].
func SealCRC(buf []float32) {
	if len(buf) == 0 {
		panic("mpi: SealCRC on empty buffer")
	}
	buf[len(buf)-1] = math.Float32frombits(ChecksumPayload(buf[:len(buf)-1]))
}

// OpenCRC verifies a sealed frame and returns its payload (aliasing buf).
// A mismatch means the frame was corrupted somewhere between SealCRC and
// here; the error wraps ErrFrameCorrupt.
func OpenCRC(buf []float32) ([]float32, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("%w: empty frame", ErrFrameCorrupt)
	}
	payload := buf[: len(buf)-1 : len(buf)-1]
	want := math.Float32bits(buf[len(buf)-1])
	if got := ChecksumPayload(payload); got != want {
		return nil, fmt.Errorf("%w: computed %08x, frame carries %08x (%d-word payload)",
			ErrFrameCorrupt, got, want, len(payload))
	}
	return payload, nil
}
