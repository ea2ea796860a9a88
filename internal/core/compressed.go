package core

import (
	"math"

	"swquake/internal/compress"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/telemetry"
)

// compressedState keeps the nine dynamic fields as 16-bit codes in "main
// memory"; the float32 wavefield acts as the decompressed working buffer
// (the LDM stand-in). Each pass decodes what it reads, computes in float32
// and re-encodes what it wrote (Fig. 5b-c), so the stored state only ever
// exists in compressed form between kernels — including the velocity→stress
// handoff inside one step, which is where the paper's accuracy loss (Fig. 6)
// comes from.
type compressedState struct {
	fields []*compress.Field // same order as fd.Wavefield.AllFields
}

// newCompressedState builds the nine compressed views of wf, each with its
// codec for method over the field's calibrated range (Half needs none), and
// stores wf in them.
func newCompressedState(wf *fd.Wavefield, method compress.Method, ranges map[string]compress.Stats) (*compressedState, error) {
	cs := &compressedState{}
	for i, f := range wf.AllFields() {
		codec, err := compress.NewCodec(method, ranges[FieldNames[i]])
		if err != nil {
			return nil, err
		}
		cf := compress.NewField(f, codec)
		cf.EncodeFrom(f)
		cs.fields = append(cs.fields, cf)
	}
	return cs, nil
}

// velocity / stress return the compressed views in wavefield order:
// indices 0-2 are u,v,w; 3-8 the stresses.
func (cs *compressedState) velocity() []*compress.Field { return cs.fields[:3] }
func (cs *compressedState) stress() []*compress.Field   { return cs.fields[3:] }

// encode and decode are the storage hooks the step pipeline (pipeline.go)
// calls around its phases — and Restore, to store a loaded wavefield — over
// all nine fields or the velocity or stress subset, halos included.

// encode stores the working fields fs into their compressed views cfs.
func encode(cfs []*compress.Field, fs []*grid.Field) {
	for i, cf := range cfs {
		cf.EncodeFrom(fs[i])
	}
}

// decode fills the working fields fs from their compressed views cfs.
func decode(cfs []*compress.Field, fs []*grid.Field) {
	for i, cf := range cfs {
		cf.DecodeInto(fs[i])
	}
}

// storeAll is the step's last round trip, after the walks: it stores all
// nine fields and reads them back, so that recorders and checkpoints observe
// exactly the stored state, and takes the step's max |v| and PGV peaks from
// the velocities it decoded — the walk scanned none, as the ones it holds
// are not the ones stored.
func (s *Simulator) storeAll(sw *telemetry.Stopwatch) {
	encode(s.comp.fields, s.WF.AllFields())
	decode(s.comp.fields, s.WF.AllFields())
	sw.Lap(telemetry.StageCompression)
	s.vmax = math.Float32bits(s.WF.MaxAbsVelocity())
	sw.Lap(telemetry.StageDivergence)
	if s.pgv != nil {
		s.pgv.Update(s.WF)
		sw.Lap(telemetry.StageRecord)
	}
}
