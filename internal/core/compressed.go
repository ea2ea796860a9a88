package core

import (
	"math"

	"swquake/internal/compress"
	"swquake/internal/grid"
	"swquake/internal/telemetry"
)

// compressedState is a block's compressed storage: the run's nine codecs
// and a bounded scratch. The float32 wavefield is the one resident copy;
// wherever the paper stores a field in 16 bits and reads it back (Fig.
// 5b-c), roundTrip passes it through its codec in place. A codec's round
// trip leaves its own output unchanged, so a field that has been round
// tripped holds exactly what a 16-bit store would decode to, and the stored
// state is only ever such values between the points that store it —
// including the velocity→stress handoff inside one step, which is where the
// paper's accuracy loss (Fig. 6) comes from.
type compressedState struct {
	codecs  []compress.Codec // one per dynamic field, in fd.Wavefield.AllFields order
	scratch []uint16         // roundTripChunk codes: the LDM stand-in
}

// roundTripChunk is how many values roundTrip encodes at a time (4 KB of
// codes).
const roundTripChunk = 2048

// newCompressedState is the storage of a block of a run with these codecs.
func newCompressedState(codecs []compress.Codec) *compressedState {
	return &compressedState{codecs: codecs, scratch: make([]uint16, roundTripChunk)}
}

// roundTrip stores each field of fs and reads it back in place, halos
// included: fs[i] goes through codecs[i], so fs is AllFields or its
// velocity prefix.
func (cs *compressedState) roundTrip(fs []*grid.Field) {
	for i, f := range fs {
		c := cs.codecs[i]
		for data := f.Data; len(data) > 0; {
			n := min(len(data), len(cs.scratch))
			c.EncodeSlice(cs.scratch[:n], data[:n])
			c.DecodeSlice(data[:n], cs.scratch[:n])
			data = data[n:]
		}
	}
}

// storeAll is the step's last round trip, after the walks: it stores all
// nine fields and reads them back, so that recorders, checkpoints and the
// neighbours observe exactly the stored state, and takes the step's max |v|
// and PGV peaks from the velocities it rewrote — the walk scanned none, as
// the ones it held were not the ones stored.
func (s *Simulator) storeAll(sw *telemetry.Stopwatch) {
	s.comp.roundTrip(s.WF.AllFields())
	sw.Lap(telemetry.StageCompression)
	s.vmax = math.Float32bits(s.WF.MaxAbsVelocity())
	sw.Lap(telemetry.StageDivergence)
	if s.pgv != nil {
		s.pgv.Update(s.WF)
		sw.Lap(telemetry.StageRecord)
	}
}
