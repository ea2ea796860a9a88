package fd

import "swquake/internal/grid"

// Region-parameterized stage kernels — the 3D generalization of the
// original [k0,k1) z-slab signatures (which remain as thin full-x/y
// wrappers). A Region is the unit of work of the core engine's tile pool
// and of the interior/shell decomposition used for overlapped halo
// exchange.
//
// Every kernel here is per-cell independent with respect to its own
// writes: the velocity kernel writes u,v,w reading only stresses and
// density; the stress kernel writes the six stresses reading only
// velocities and moduli; SLS.After, plasticity, attenuation and the sponge
// read and write only the cell they stand on. Therefore any disjoint
// partition of a region, executed in any order or concurrently, produces
// bit-identical fields — the property the region engine's correctness
// (and its property tests) rest on.

// ApplyFreeSurfaceCols enforces the free-surface image condition on the
// columns [i0,i1) x [j0,j1) only. Column bounds may address halo columns
// (the full-grid wrapper images the whole ghost frame); the overlap
// pipeline images owned columns before the halo exchange completes and the
// ghost frame after.
func ApplyFreeSurfaceCols(wf *Wavefield, i0, i1, j0, j1 int) {
	zz, xz, yz := wf.ZZ.Data, wf.XZ.Data, wf.YZ.Data
	u, v, w := wf.U.Data, wf.V.Data, wf.W.Data
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			p := wf.U.Idx(i, j, 0) // the column's k = 0 cell; k = -g is p-g
			for g := 1; g <= Halo; g++ {
				// antisymmetric tractions
				zz[p-g] = -zz[p+g-1]
				xz[p-g] = -xz[p+g-1]
				yz[p-g] = -yz[p+g-1]
				// symmetric velocities
				u[p-g] = u[p+g-1]
				v[p-g] = v[p+g-1]
				w[p-g] = w[p+g-1]
			}
		}
	}
}

// AfterRegion evolves the memory variables and applies the anelastic
// correction over the region; the region counterpart of After.
func (s *SLS) AfterRegion(wf *Wavefield, dt float64, reg grid.Region) {
	ts := s.TauSigma
	a := float32((2*ts - dt) / (2*ts + dt))
	b := float32(2 * dt / (2*ts + dt))
	dtf := float32(dt)

	for c, f := range wf.StressFields() {
		r := s.R[c]
		prev := s.prev[c]
		for i := reg.I0; i < reg.I1; i++ {
			for j := reg.J0; j < reg.J1; j++ {
				row := f.Row(i, j)
				rRow := r.Row(i, j)
				pRow := prev.Row(i, j)
				phiRow := s.Phi.Row(i, j)
				for k := reg.K0; k < reg.K1; k++ {
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

// UpdateVelocityFusedRegion advances the fused velocities over the region;
// numerically identical to UpdateVelocityRegion on the scalar layout.
func UpdateVelocityFusedRegion(f *FusedWavefield, med *Medium, dtdx float32, r grid.Region) {
	vel, str := f.Vel.Data, f.Str.Data
	rho := med.Rho.Data

	// strides in ELEMENTS of the fused arrays and in points of rho
	ssx := f.Str.Idx(1, 0, 0, 0) - f.Str.Idx(0, 0, 0, 0)
	ssy := f.Str.Idx(0, 1, 0, 0) - f.Str.Idx(0, 0, 0, 0)
	rsx, rsy := med.Rho.StrideX(), med.Rho.StrideY()

	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			vp := f.Vel.Idx(i, j, r.K0, 0)
			sp := f.Str.Idx(i, j, r.K0, 0)
			rp := med.Rho.Idx(i, j, r.K0)
			for k := r.K0; k < r.K1; k, vp, sp, rp = k+1, vp+3, sp+6, rp+1 {
				// u at (i+1/2, j, k)
				ru := dtdx * 2 / (rho[rp] + rho[rp+rsx])
				du := C1*(str[sp+ssx+cXX]-str[sp+cXX]) + C2*(str[sp+2*ssx+cXX]-str[sp-ssx+cXX]) +
					C1*(str[sp+cXY]-str[sp-ssy+cXY]) + C2*(str[sp+ssy+cXY]-str[sp-2*ssy+cXY]) +
					C1*(str[sp+cXZ]-str[sp-6+cXZ]) + C2*(str[sp+6+cXZ]-str[sp-12+cXZ])
				vel[vp] += ru * du

				// v at (i, j+1/2, k)
				rv := dtdx * 2 / (rho[rp] + rho[rp+rsy])
				dv := C1*(str[sp+cXY]-str[sp-ssx+cXY]) + C2*(str[sp+ssx+cXY]-str[sp-2*ssx+cXY]) +
					C1*(str[sp+ssy+cYY]-str[sp+cYY]) + C2*(str[sp+2*ssy+cYY]-str[sp-ssy+cYY]) +
					C1*(str[sp+cYZ]-str[sp-6+cYZ]) + C2*(str[sp+6+cYZ]-str[sp-12+cYZ])
				vel[vp+1] += rv * dv

				// w at (i, j, k+1/2)
				rw := dtdx * 2 / (rho[rp] + rho[rp+1])
				dw := C1*(str[sp+cXZ]-str[sp-ssx+cXZ]) + C2*(str[sp+ssx+cXZ]-str[sp-2*ssx+cXZ]) +
					C1*(str[sp+cYZ]-str[sp-ssy+cYZ]) + C2*(str[sp+ssy+cYZ]-str[sp-2*ssy+cYZ]) +
					C1*(str[sp+6+cZZ]-str[sp+cZZ]) + C2*(str[sp+12+cZZ]-str[sp-6+cZZ])
				vel[vp+2] += rw * dw
			}
		}
	}
}

// UpdateStressFusedRegion advances the fused stresses over the region;
// numerically identical to UpdateStressRegion on the scalar layout.
func UpdateStressFusedRegion(f *FusedWavefield, med *Medium, dtdx float32, r grid.Region) {
	vel, str := f.Vel.Data, f.Str.Data
	lam, mu := med.Lam.Data, med.Mu.Data

	vsx := f.Vel.Idx(1, 0, 0, 0) - f.Vel.Idx(0, 0, 0, 0)
	vsy := f.Vel.Idx(0, 1, 0, 0) - f.Vel.Idx(0, 0, 0, 0)
	msx, msy := med.Mu.StrideX(), med.Mu.StrideY()

	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			vp := f.Vel.Idx(i, j, r.K0, 0)
			sp := f.Str.Idx(i, j, r.K0, 0)
			mp := med.Mu.Idx(i, j, r.K0)
			for k := r.K0; k < r.K1; k, vp, sp, mp = k+1, vp+3, sp+6, mp+1 {
				vxx := C1*(vel[vp]-vel[vp-vsx]) + C2*(vel[vp+vsx]-vel[vp-2*vsx])
				vyy := C1*(vel[vp+1]-vel[vp-vsy+1]) + C2*(vel[vp+vsy+1]-vel[vp-2*vsy+1])
				vzz := C1*(vel[vp+2]-vel[vp-3+2]) + C2*(vel[vp+3+2]-vel[vp-6+2])

				l, m := lam[mp], mu[mp]
				l2m := l + 2*m
				str[sp+cXX] += dtdx * (l2m*vxx + l*(vyy+vzz))
				str[sp+cYY] += dtdx * (l2m*vyy + l*(vxx+vzz))
				str[sp+cZZ] += dtdx * (l2m*vzz + l*(vxx+vyy))

				mxy := harmonic4(mu[mp], mu[mp+msx], mu[mp+msy], mu[mp+msx+msy])
				dxy := C1*(vel[vp+vsy]-vel[vp]) + C2*(vel[vp+2*vsy]-vel[vp-vsy]) +
					C1*(vel[vp+vsx+1]-vel[vp+1]) + C2*(vel[vp+2*vsx+1]-vel[vp-vsx+1])
				str[sp+cXY] += dtdx * mxy * dxy

				mxz := harmonic4(mu[mp], mu[mp+msx], mu[mp+1], mu[mp+msx+1])
				dxz := C1*(vel[vp+3]-vel[vp]) + C2*(vel[vp+6]-vel[vp-3]) +
					C1*(vel[vp+vsx+2]-vel[vp+2]) + C2*(vel[vp+2*vsx+2]-vel[vp-vsx+2])
				str[sp+cXZ] += dtdx * mxz * dxz

				myz := harmonic4(mu[mp], mu[mp+msy], mu[mp+1], mu[mp+msy+1])
				dyz := C1*(vel[vp+3+1]-vel[vp+1]) + C2*(vel[vp+6+1]-vel[vp-3+1]) +
					C1*(vel[vp+vsy+2]-vel[vp+2]) + C2*(vel[vp+2*vsy+2]-vel[vp-vsy+2])
				str[sp+cYZ] += dtdx * myz * dyz
			}
		}
	}
}
