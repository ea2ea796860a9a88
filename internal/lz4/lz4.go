// Package lz4 is a from-scratch implementation of the LZ4 block format
// (compression and decompression), used by the checkpoint/restart controller
// the way the paper uses LZ4 to shrink its 108-TB restart dumps (§6.2).
//
// The block format is the standard one: a sequence of sequences, each
//
//	token (1 B: literalLen<<4 | matchLen-4)
//	[extended literal length bytes 255..]
//	literals
//	little-endian 2-byte match offset (1..65535)
//	[extended match length bytes 255..]
//
// with the usual end-of-block rules (last sequence is literals-only, the
// final 5 bytes are always literals, matches must not start within the last
// 12 bytes). The compressor is a single-probe 4-byte hash match finder — the
// same design point as the reference "fast" compressor.
package lz4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

const (
	minMatch      = 4
	lastLiterals  = 5  // last 5 bytes must be literals
	mfLimit       = 12 // matches must end at least 12 bytes before block end
	maxOffset     = 65535
	hashLog       = 12
	hashTableSize = 1 << hashLog
	skipTrigger   = 6 // the search stride grows by one every 2^6 misses
)

// ErrCorrupt is returned by Decompress when the input is not a valid block.
var ErrCorrupt = errors.New("lz4: corrupt block")

// ErrShortBuffer is returned when the destination is too small.
var ErrShortBuffer = errors.New("lz4: destination buffer too small")

// CompressBound returns the maximum compressed size for an input of length n
// (worst case: incompressible data stored as literals plus headers).
func CompressBound(n int) int {
	return n + n/255 + 16
}

func hash4(u uint32) uint32 {
	return (u * 2654435761) >> (32 - hashLog)
}

// Compress compresses src into dst using the LZ4 block format and returns
// the number of bytes written. dst must be at least CompressBound(len(src))
// long. The output is a pure function of src.
//
// The match finder is the reference "fast" compressor's: one probe per
// position into a table small enough to stay in L1 (2^12 int32 entries,
// 16 KB; a larger table finds a few more matches but pays a cache miss per
// input byte — DESIGN.md §3.3 has the measured points), a search stride that
// grows by one every 64 consecutive misses so incompressible stretches (the
// mantissa noise of an active wavefield) are crossed quickly, and matches
// extended eight bytes at a time.
func Compress(dst, src []byte) (int, error) {
	if len(dst) < CompressBound(len(src)) {
		return 0, ErrShortBuffer
	}
	if len(src) == 0 {
		return 0, nil
	}
	if len(src) < mfLimit+1 {
		return emitFinalLiterals(dst, src), nil
	}

	var table [hashTableSize]int32 // position+1 of a previous 4-byte sequence
	anchor := 0                    // start of pending literals
	pos := 0
	limit := len(src) - mfLimit         // last position where a match may start
	matchEnd := len(src) - lastLiterals // a match may not cover the final literals
	dn := 0

search:
	for pos < limit {
		// find a match, striding faster the longer nothing is found
		var cand int
		for misses := 1 << skipTrigger; ; misses++ {
			seq := binary.LittleEndian.Uint32(src[pos:])
			h := hash4(seq)
			cand = int(table[h]) - 1
			table[h] = int32(pos + 1)
			if cand >= 0 && pos-cand <= maxOffset &&
				binary.LittleEndian.Uint32(src[cand:]) == seq {
				break
			}
			if pos += misses >> skipTrigger; pos >= limit {
				break search
			}
		}

		// extend match backwards over pending literals
		for pos > anchor && cand > 0 && src[pos-1] == src[cand-1] {
			pos--
			cand--
		}

		matchLen := minMatch + commonPrefix(src[cand+minMatch:], src[pos+minMatch:matchEnd])
		dn += emitSequence(dst[dn:], src[anchor:pos], pos-cand, matchLen)

		pos += matchLen
		anchor = pos

		// prime the table inside the match for better subsequent matches
		if pos < limit {
			table[hash4(binary.LittleEndian.Uint32(src[pos-2:]))] = int32(pos - 2 + 1)
		}
	}

	dn += emitFinalLiterals(dst[dn:], src[anchor:])
	return dn, nil
}

// commonPrefix returns how many leading bytes of b (the shorter, later
// slice) equal those of a, comparing eight at a time.
func commonPrefix(a, b []byte) int {
	n := 0
	for ; n+8 <= len(b); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// emitSequence writes one token + literals + match and returns bytes written.
func emitSequence(dst, literals []byte, offset, matchLen int) int {
	n := 0
	litLen := len(literals)
	ml := matchLen - minMatch

	tok := byte(0)
	if litLen >= 15 {
		tok = 15 << 4
	} else {
		tok = byte(litLen) << 4
	}
	if ml >= 15 {
		tok |= 15
	} else {
		tok |= byte(ml)
	}
	dst[n] = tok
	n++
	if litLen >= 15 {
		n += putLenExt(dst[n:], litLen-15)
	}
	n += copy(dst[n:], literals)
	binary.LittleEndian.PutUint16(dst[n:], uint16(offset))
	n += 2
	if ml >= 15 {
		n += putLenExt(dst[n:], ml-15)
	}
	return n
}

// emitFinalLiterals writes the terminating literals-only sequence.
func emitFinalLiterals(dst, literals []byte) int {
	n := 0
	litLen := len(literals)
	if litLen >= 15 {
		dst[n] = 15 << 4
		n++
		n += putLenExt(dst[n:], litLen-15)
	} else {
		dst[n] = byte(litLen) << 4
		n++
	}
	n += copy(dst[n:], literals)
	return n
}

func putLenExt(dst []byte, v int) int {
	n := 0
	for v >= 255 {
		dst[n] = 255
		n++
		v -= 255
	}
	dst[n] = byte(v)
	return n + 1
}

// Decompress decompresses a block produced by Compress into dst, which must
// be exactly the original length. It returns the number of bytes written.
func Decompress(dst, src []byte) (int, error) {
	var dn, sn int
	for sn < len(src) {
		tok := src[sn]
		sn++

		// literals
		litLen := int(tok >> 4)
		if litLen == 15 {
			n, v, err := getLenExt(src[sn:])
			if err != nil {
				return dn, err
			}
			sn += n
			litLen += v
		}
		if sn+litLen > len(src) || dn+litLen > len(dst) {
			return dn, ErrCorrupt
		}
		copy(dst[dn:], src[sn:sn+litLen])
		sn += litLen
		dn += litLen

		if sn == len(src) {
			return dn, nil // literals-only terminating sequence
		}

		// match
		if sn+2 > len(src) {
			return dn, ErrCorrupt
		}
		offset := int(binary.LittleEndian.Uint16(src[sn:]))
		sn += 2
		if offset == 0 || offset > dn {
			return dn, ErrCorrupt
		}
		matchLen := int(tok&0xf) + minMatch
		if tok&0xf == 15 {
			n, v, err := getLenExt(src[sn:])
			if err != nil {
				return dn, err
			}
			sn += n
			matchLen += v
		}
		if dn+matchLen > len(dst) {
			return dn, ErrCorrupt
		}
		// the match may overlap its own output (offset < matchLen is the
		// format's RLE): each copy reads only bytes already written, so the
		// copied span doubles until the match is complete
		for m, end := dn-offset, dn+matchLen; dn < end; {
			dn += copy(dst[dn:end], dst[m:dn])
		}
	}
	return dn, nil
}

func getLenExt(src []byte) (consumed, v int, err error) {
	for i, b := range src {
		v += int(b)
		if b != 255 {
			return i + 1, v, nil
		}
	}
	return 0, 0, ErrCorrupt
}

// CompressAlloc compresses src into a freshly allocated right-sized buffer.
func CompressAlloc(src []byte) []byte {
	dst := make([]byte, CompressBound(len(src)))
	n, err := Compress(dst, src)
	if err != nil {
		panic(fmt.Sprintf("lz4: internal error: %v", err))
	}
	return dst[:n]
}

// DecompressAlloc decompresses src, whose original length must be known.
func DecompressAlloc(src []byte, originalLen int) ([]byte, error) {
	dst := make([]byte, originalLen)
	n, err := Decompress(dst, src)
	if err != nil {
		return nil, err
	}
	if n != originalLen {
		return nil, fmt.Errorf("lz4: decompressed %d bytes, want %d", n, originalLen)
	}
	return dst, nil
}

// Ratio returns the compression ratio original/compressed for reporting.
func Ratio(originalLen, compressedLen int) float64 {
	if compressedLen == 0 {
		return 0
	}
	return float64(originalLen) / float64(compressedLen)
}
