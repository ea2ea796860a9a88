package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"swquake/internal/seismo"
)

// The resume-aux section rides inside a checkpoint (its aux payload) and
// carries the run state the wavefield alone cannot reproduce: recorded
// seismogram samples, the running PGV peaks and the plasticity yield
// counter. With it, a run resumed from a checkpoint
// produces a manifest and traces bit-identical to an uninterrupted run —
// without it, a resumed run would restart its recorders empty and
// under-report everything accumulated before the crash.
//
// One codec serves every user: each block's slice of the state is encoded
// in this format (resumeAux), gathered to block 0 and merged into one
// GLOBAL section (assembleGlobalResume in parallel.go) — for the
// whole-domain block too, so every decomposition writes the same section —
// and restarts, serial or parallel, extract the block's share
// (applyResumeAux).
//
// Layout (little-endian): magic "RSA1", yielded i64, six retired i64 words,
// a retired u32, trace count u32, per trace a sample count u32 + U/V/W
// float32 samples, then a PGV flag byte (0 or 1) and, if 1, nx/ny/k u32 +
// float64 peaks. The retired i64 words held the Perf accounting — four
// kernel point counts, the step count and the elapsed nanoseconds — which a
// run now derives from its configuration and its own steps (Config.perf);
// the retired u32 held the recorder's step count, which is every trace's
// length. They are written as zero and skipped on read, so dumps written
// with them still resume. Integrity is the checkpoint layer's job (the aux
// CRC); this codec only validates structure.

var resumeMagic = [4]byte{'R', 'S', 'A', '1'}

// retiredBytes is how many bytes follow the yield count and carry nothing:
// six i64 words and a u32.
const retiredBytes = 8*6 + 4

// resumeState is the decoded resume-aux section: everything a simulator
// needs to pick up a run exactly where the checkpoint left it.
type resumeState struct {
	yielded int64
	traces  [][3][]float32 // per station: U, V, W samples
	pgv     *seismo.PGVField
}

// resumeState snapshots the simulator's replay state. The trace and PGV
// slices alias live simulator storage; encode before the next step.
func (s *Simulator) resumeState() *resumeState {
	st := &resumeState{yielded: s.yielded, pgv: s.pgv}
	st.traces = make([][3][]float32, len(s.rec.Traces))
	for i, tr := range s.rec.Traces {
		st.traces[i] = [3][]float32{tr.U, tr.V, tr.W}
	}
	return st
}

// resumeAux serializes the block's replay state.
func (s *Simulator) resumeAux() []byte {
	return encodeResumeState(s.resumeState())
}

// encodeResumeState renders the state in the RSA1 layout.
func encodeResumeState(st *resumeState) []byte {
	var buf bytes.Buffer
	buf.Write(resumeMagic[:])
	le := binary.LittleEndian
	writeI64 := func(v int64) {
		var b [8]byte
		le.PutUint64(b[:], uint64(v))
		buf.Write(b[:])
	}
	writeU32 := func(v uint32) {
		var b [4]byte
		le.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	writeI64(st.yielded)
	buf.Write(make([]byte, retiredBytes))

	writeU32(uint32(len(st.traces)))
	for _, tr := range st.traces {
		writeU32(uint32(len(tr[0])))
		for _, c := range tr {
			for _, v := range c {
				writeU32(math.Float32bits(v))
			}
		}
	}

	if st.pgv == nil {
		buf.WriteByte(0)
	} else {
		buf.WriteByte(1)
		writeU32(uint32(st.pgv.Nx))
		writeU32(uint32(st.pgv.Ny))
		writeU32(uint32(st.pgv.K))
		for _, v := range st.pgv.PGV {
			var b [8]byte
			le.PutUint64(b[:], math.Float64bits(v))
			buf.Write(b[:])
		}
	}
	return buf.Bytes()
}

// parseResumeAux decodes an RSA1 section, validating structure only
// (magic, declared lengths, no trailing bytes); whether the content fits
// the consuming simulator is the caller's check.
func parseResumeAux(data []byte) (*resumeState, error) {
	le := binary.LittleEndian
	fail := func(format string, args ...any) (*resumeState, error) {
		return nil, fmt.Errorf("core: resume aux: "+format, args...)
	}
	if len(data) < 4 || !bytes.Equal(data[:4], resumeMagic[:]) {
		return fail("bad magic")
	}
	rest := data[4:]
	truncated := fmt.Errorf("core: resume aux: truncated")
	readU32 := func() (uint32, error) {
		if len(rest) < 4 {
			return 0, truncated
		}
		v := le.Uint32(rest)
		rest = rest[4:]
		return v, nil
	}

	if len(rest) < 8+retiredBytes {
		return nil, truncated
	}
	st := &resumeState{yielded: int64(le.Uint64(rest))}
	rest = rest[8+retiredBytes:]

	nTraces, err := readU32()
	if err != nil {
		return nil, err
	}
	if int64(nTraces)*4 > int64(len(rest)) {
		return fail("%d traces declared, %d bytes remain", nTraces, len(rest))
	}
	st.traces = make([][3][]float32, nTraces)
	for i := range st.traces {
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if int64(n)*12 > int64(len(rest)) {
			return fail("trace %d declares %d samples, %d bytes remain", i, n, len(rest))
		}
		for c := 0; c < 3; c++ {
			samples := make([]float32, n)
			for j := range samples {
				bits, err := readU32()
				if err != nil {
					return nil, err
				}
				samples[j] = math.Float32frombits(bits)
			}
			st.traces[i][c] = samples
		}
	}

	if len(rest) < 1 {
		return nil, truncated
	}
	flag := rest[0]
	rest = rest[1:]
	if flag > 1 {
		return fail("PGV flag %d", flag)
	}
	if flag == 1 {
		nx, err := readU32()
		if err != nil {
			return nil, err
		}
		ny, err2 := readU32()
		if err2 != nil {
			return nil, err2
		}
		k, err3 := readU32()
		if err3 != nil {
			return nil, err3
		}
		// both factors are below 2^32, so the product cannot wrap
		want := uint64(nx) * uint64(ny)
		if want != uint64(len(rest))/8 || len(rest)%8 != 0 {
			return fail("PGV %dx%d needs %d peaks, %d bytes remain", nx, ny, want, len(rest))
		}
		st.pgv = seismo.NewPGVField(int(nx), int(ny), int(k))
		for i := range st.pgv.PGV {
			st.pgv.PGV[i] = math.Float64frombits(le.Uint64(rest[i*8:]))
		}
		rest = rest[len(rest):]
	}
	if len(rest) != 0 {
		return fail("%d trailing bytes", len(rest))
	}
	return st, nil
}

// applyResumeAux restores the block's share of a resume section, which
// always describes the run's whole domain: its stations' traces (located
// through blockStationIndices — the same mapping that built the local
// station list) and its window of the PGV surface. The yield counter is
// restored on block 0 alone, so its sum over the blocks — which is all a
// merge ever reports — equals the undisturbed run's exactly.
// The run must be configured with the same stations and PGV setting as the
// one that wrote the checkpoint. Nothing is mutated until every check
// passes.
func (s *Simulator) applyResumeAux(data []byte) error {
	st, err := parseResumeAux(data)
	if err != nil {
		return err
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("core: resume aux: "+format, args...)
	}
	if len(st.traces) != len(s.stations) {
		return fail("%d traces in checkpoint, run has %d stations", len(st.traces), len(s.stations))
	}
	idxs := blockStationIndices(s.stations, s.pg, s.id)
	if len(idxs) != len(s.rec.Traces) {
		return fail("rank %d hosts %d stations, recorder has %d traces", s.id, len(idxs), len(s.rec.Traces))
	}
	if (st.pgv != nil) != (s.pgv != nil) {
		return fail("PGV presence mismatch (checkpoint %v, config %v)", st.pgv != nil, s.pgv != nil)
	}
	if st.pgv != nil && (st.pgv.Nx != s.pg.GlobalNx || st.pgv.Ny != s.pg.GlobalNy) {
		return fail("PGV dims %dx%d do not match run %dx%d", st.pgv.Nx, st.pgv.Ny, s.pg.GlobalNx, s.pg.GlobalNy)
	}

	// everything validated — commit
	for li, gi := range idxs {
		tr := s.rec.Traces[li]
		tr.U, tr.V, tr.W = st.traces[gi][0], st.traces[gi][1], st.traces[gi][2]
	}
	if s.pgv != nil {
		i0, j0 := s.pg.Offset(s.id)
		for i := 0; i < s.pgv.Nx; i++ {
			for j := 0; j < s.pgv.Ny; j++ {
				s.pgv.Set(i, j, st.pgv.At(i0+i, j0+j))
			}
		}
	}
	if s.id == 0 {
		s.yielded = st.yielded
	}
	return nil
}

// auxWords wraps an aux byte payload for transport over the float32-typed
// collectives: a length word followed by the bytes packed four per word.
// The packing is pure bit reinterpretation — the collectives copy words and
// never do arithmetic on them, so every byte survives the gather exactly.
func auxWords(b []byte) []float32 {
	words := make([]float32, 1+(len(b)+3)/4)
	words[0] = math.Float32frombits(uint32(len(b)))
	for i, c := range b {
		w := 1 + i/4
		bits := math.Float32bits(words[w]) | uint32(c)<<(8*(i%4))
		words[w] = math.Float32frombits(bits)
	}
	return words
}

// auxBytes unwraps an auxWords payload.
func auxBytes(w []float32) ([]byte, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("core: empty aux payload")
	}
	n := int(math.Float32bits(w[0]))
	if need := 1 + (n+3)/4; need != len(w) {
		return nil, fmt.Errorf("core: aux payload declares %d bytes, carries %d words (want %d)", n, len(w), need)
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(math.Float32bits(w[1+i/4]) >> (8 * (i % 4)))
	}
	return out, nil
}
