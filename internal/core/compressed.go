package core

import (
	"swquake/internal/compress"
	"swquake/internal/fd"
	"swquake/internal/grid"
)

// compressedState is a block's compressed storage: the run's nine codecs.
// The float32 wavefield is the one resident copy; wherever the paper stores
// a field in 16 bits and reads it back (Fig. 5b-c), the walk passes the
// region it has just written through its codec in place (roundTrip). A
// codec's round trip leaves its own output unchanged, so a round-tripped
// field holds exactly what a 16-bit store would decode to — also at the
// velocity→stress handoff inside a step, where the paper's accuracy loss
// (Fig. 6) comes from.
type compressedState struct {
	codecs []compress.Codec // one per dynamic field, in fd.Wavefield.AllFields order
}

// The field groups roundTrip takes, as indices in fd.Wavefield.AllFields
// order (the codecs').
var (
	allFields  = []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	velocities = allFields[:3]
	stresses   = allFields[3:]
	tractions  = []int{5, 7, 8} // zz, xz, yz: what the free surface images
)

// roundTrip stores the fields of wf that fields names over the region r,
// which may reach into the ghost layers, and reads them back in place, a
// column at a time through codes (a padded column's: the LDM stand-in).
func (cs *compressedState) roundTrip(wf *fd.Wavefield, fields []int, r grid.Region, codes []uint16) {
	all := [...]*grid.Field{wf.U, wf.V, wf.W, wf.XX, wf.YY, wf.ZZ, wf.XY, wf.XZ, wf.YZ}
	codes = codes[:r.Nk()]
	for _, x := range fields {
		f, c := all[x], cs.codecs[x]
		for i := r.I0; i < r.I1; i++ {
			for j := r.J0; j < r.J1; j++ {
				col := f.Data[f.Idx(i, j, r.K0):][:len(codes)]
				c.EncodeSlice(codes, col)
				c.DecodeSlice(col, codes)
			}
		}
	}
}

// padded is the block's box with its ghost layers: every value a field holds.
func padded(d grid.Dims) grid.Region {
	const h = fd.Halo
	return grid.Region{I0: -h, I1: d.Nx + h, J0: -h, J1: d.Ny + h, K0: -h, K1: d.Nz + h}
}

// withSurfaceGhosts is r and, where r reaches the free surface, its
// columns' ghost planes above it, which the imaging writes.
func withSurfaceGhosts(r grid.Region) grid.Region {
	if r.K0 == 0 {
		r.K0 = -fd.Halo
	}
	return r
}
