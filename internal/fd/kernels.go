package fd

import "swquake/internal/grid"

// This file contains the three core wave-propagation kernels. They are the
// Go counterparts of AWP-ODC's most cycle-hungry routines, which the paper
// names delcx/delcy (velocity), dstrqc (stress) and fstr (free surface).
//
// All kernels accept a [k0,k1) z-range so the compressed execution mode can
// process the grid in LDM-sized z-slabs (decompress-compute-compress,
// Fig. 5c) and so the simulated CPE threads can each own a sub-range.
//
// Because every field shares one shape, a single flat index walks all
// arrays in the contiguous z direction, which is also what makes the
// paper's fused-array DMA transfers contiguous.

// Per-point flop counts of each kernel, used by the performance model.
// They are hand counts of the arithmetic in the loops below (a multiply-add
// counts as two flops, a divide as one).
const (
	VelocityFlopsPerPoint = 69  // 3 components x (3 stencils + density avg + update)
	StressFlopsPerPoint   = 106 // 6 stencils, 3 diagonal + 3 shear updates, mu harmonic means
	SpongeFlopsPerPoint   = 9   // 9 field multiplies per damped point
)

// UpdateVelocity advances the three velocity components by one time step
// over the z-range [k0,k1) using the current stresses (kernel "delc").
// dtdx is dt/dx. Thin full-x/y wrapper over UpdateVelocityRegion.
func UpdateVelocity(wf *Wavefield, med *Medium, dtdx float32, k0, k1 int) {
	UpdateVelocityRegion(wf, med, dtdx, grid.FullXY(wf.D, k0, k1))
}

// UpdateStress advances the six stress components by one time step over the
// z-range [k0,k1) using the current velocities (kernel "dstrqc"). Thin
// full-x/y wrapper over UpdateStressRegion.
func UpdateStress(wf *Wavefield, med *Medium, dtdx float32, k0, k1 int) {
	UpdateStressRegion(wf, med, dtdx, grid.FullXY(wf.D, k0, k1))
}

// ApplyFreeSurface enforces the traction-free condition at the top of the
// grid (kernel "fstr") with the classic image method: the normal and shear
// tractions are imaged antisymmetrically and the velocities symmetrically
// into the two ghost layers above k = 0, placing the effective free surface
// half a cell above the first stress plane. It covers every column
// including the lateral ghost frame; ApplyFreeSurfaceCols restricts the
// column range.
func ApplyFreeSurface(wf *Wavefield) {
	d := wf.D
	ApplyFreeSurfaceCols(wf, -Halo, d.Nx+Halo, -Halo, d.Ny+Halo)
}
