package fd

// Region-parameterized stage kernels — the 3D generalization of the
// original [k0,k1) z-slab signatures (of which UpdateVelocity, UpdateStress
// and ApplyFreeSurface remain, as thin full-x/y wrappers). A Region is the
// unit of work of the core engine's walk — the plane-strips its wavefront
// workers take, and the interior/shell decomposition used for overlapped
// halo exchange.
//
// Every kernel here is per-cell independent with respect to its own
// writes: the velocity kernel writes u,v,w reading only stresses and
// density; the stress kernel writes the six stresses reading only
// velocities and moduli; SLS.AfterRegion, plasticity, attenuation and the
// sponge read and write only the cell they stand on. Therefore any disjoint
// partition of a region, executed in any order or concurrently, produces
// bit-identical fields — the property the region engine's correctness
// (and its property tests) rest on.

// ApplyFreeSurfaceCols enforces the free-surface image condition on the
// columns [i0,i1) x [j0,j1) only: tractions, then velocities.
func ApplyFreeSurfaceCols(wf *Wavefield, i0, i1, j0, j1 int) {
	ImageTractionCols(wf, i0, i1, j0, j1)
	ImageVelocityCols(wf, i0, i1, j0, j1)
}

// ImageTractionCols images the three tractions (zz, xz, yz) antisymmetrically
// about the free surface on the columns [i0,i1) x [j0,j1) — the ghosts the
// velocity kernel reads. Column bounds may address halo columns (the
// full-grid wrapper images the whole ghost frame).
func ImageTractionCols(wf *Wavefield, i0, i1, j0, j1 int) {
	zz, xz, yz := wf.ZZ.Data, wf.XZ.Data, wf.YZ.Data
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			p := wf.ZZ.Idx(i, j, 0) // the column's k = 0 cell; k = -g is p-g
			for g := 1; g <= Halo; g++ {
				zz[p-g] = -zz[p+g-1]
				xz[p-g] = -xz[p+g-1]
				yz[p-g] = -yz[p+g-1]
			}
		}
	}
}

// ImageVelocityCols images the three velocities symmetrically about the free
// surface on the columns [i0,i1) x [j0,j1) — the ghosts the stress kernel
// reads. The step pipeline images each slab of owned columns as the
// velocity kernel leaves it, before the halo exchange sends it.
func ImageVelocityCols(wf *Wavefield, i0, i1, j0, j1 int) {
	u, v, w := wf.U.Data, wf.V.Data, wf.W.Data
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			p := wf.U.Idx(i, j, 0)
			for g := 1; g <= Halo; g++ {
				u[p-g] = u[p+g-1]
				v[p-g] = v[p+g-1]
				w[p-g] = w[p+g-1]
			}
		}
	}
}

// AfterRegion evolves the memory variables from the elastic stress increment
// and applies the anelastic correction over the region prev was taken on;
// call after the stress kernel has run there (before plasticity, which must
// see the corrected trial stress).
func (s *SLS) AfterRegion(wf *Wavefield, dt float64, prev *StressSnapshot) {
	ts := s.TauSigma
	a := float32((2*ts - dt) / (2*ts + dt))
	b := float32(2 * dt / (2*ts + dt))
	dtf := float32(dt)

	reg, nk := prev.reg, prev.reg.Nk()
	for c, f := range wf.StressFields() {
		r := s.R[c]
		p := prev.s[c]
		for i := reg.I0; i < reg.I1; i++ {
			for j := reg.J0; j < reg.J1; j++ {
				row := f.Row(i, j)[reg.K0:reg.K1]
				rRow := r.Row(i, j)[reg.K0:reg.K1]
				phiRow := s.Phi.Row(i, j)[reg.K0:reg.K1]
				pRow := p[:nk]
				p = p[nk:]
				for k := range row {
					dsigma := row[k] - pRow[k] // = M_u * strain-rate * dt
					rOld := rRow[k]
					// semi-implicit trapezoid for
					//   dr/dt = -(r + phi*dsigma/dt)/tau_sigma
					rNew := a*rOld - b*(phiRow[k]*dsigma/dtf)
					rRow[k] = rNew
					row[k] += dtf * 0.5 * (rOld + rNew)
				}
			}
		}
	}
}
