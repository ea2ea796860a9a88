package fd

import "swquake/internal/grid"

// Reference oracles for the sweep kernels of sweep.go: the flat-index loops
// the row-sliced kernels replaced, kept verbatim (five divides per harmonic
// mean, a full-volume sponge array multiplied into every cell). They are
// the definition of the bits sweep_test.go holds the kernels to.

// harmonic4 returns the harmonic mean of four moduli, the standard
// effective-medium average for shear stresses on a staggered grid. A zero
// modulus (fluid) dominates, as it must.
func harmonic4(a, b, c, d float32) float32 {
	if a == 0 || b == 0 || c == 0 || d == 0 {
		return 0
	}
	return 4 / (1/a + 1/b + 1/c + 1/d)
}

func refUpdateVelocityRegion(wf *Wavefield, med *Medium, dtdx float32, r grid.Region) {
	sx, sy := wf.U.StrideX(), wf.U.StrideY()
	u, v, w := wf.U.Data, wf.V.Data, wf.W.Data
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	rho := med.Rho.Data

	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			p := wf.U.Idx(i, j, r.K0)
			for k := r.K0; k < r.K1; k, p = k+1, p+1 {
				// u at (i+1/2, j, k): rho averaged along x
				ru := dtdx * 2 / (rho[p] + rho[p+sx])
				du := C1*(xx[p+sx]-xx[p]) + C2*(xx[p+2*sx]-xx[p-sx]) +
					C1*(xy[p]-xy[p-sy]) + C2*(xy[p+sy]-xy[p-2*sy]) +
					C1*(xz[p]-xz[p-1]) + C2*(xz[p+1]-xz[p-2])
				u[p] += ru * du

				// v at (i, j+1/2, k): rho averaged along y
				rv := dtdx * 2 / (rho[p] + rho[p+sy])
				dv := C1*(xy[p]-xy[p-sx]) + C2*(xy[p+sx]-xy[p-2*sx]) +
					C1*(yy[p+sy]-yy[p]) + C2*(yy[p+2*sy]-yy[p-sy]) +
					C1*(yz[p]-yz[p-1]) + C2*(yz[p+1]-yz[p-2])
				v[p] += rv * dv

				// w at (i, j, k+1/2): rho averaged along z
				rw := dtdx * 2 / (rho[p] + rho[p+1])
				dw := C1*(xz[p]-xz[p-sx]) + C2*(xz[p+sx]-xz[p-2*sx]) +
					C1*(yz[p]-yz[p-sy]) + C2*(yz[p+sy]-yz[p-2*sy]) +
					C1*(zz[p+1]-zz[p]) + C2*(zz[p+2]-zz[p-1])
				w[p] += rw * dw
			}
		}
	}
}

func refUpdateStressRegion(wf *Wavefield, med *Medium, dtdx float32, r grid.Region) {
	sx, sy := wf.U.StrideX(), wf.U.StrideY()
	u, v, w := wf.U.Data, wf.V.Data, wf.W.Data
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	lam, mu := med.Lam.Data, med.Mu.Data

	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			p := wf.U.Idx(i, j, r.K0)
			for k := r.K0; k < r.K1; k, p = k+1, p+1 {
				// velocity gradients at the cell center (i, j, k)
				vxx := C1*(u[p]-u[p-sx]) + C2*(u[p+sx]-u[p-2*sx])
				vyy := C1*(v[p]-v[p-sy]) + C2*(v[p+sy]-v[p-2*sy])
				vzz := C1*(w[p]-w[p-1]) + C2*(w[p+1]-w[p-2])

				l, m := lam[p], mu[p]
				l2m := l + 2*m
				tr := vyy + vzz
				xx[p] += dtdx * (l2m*vxx + l*tr)
				yy[p] += dtdx * (l2m*vyy + l*(vxx+vzz))
				zz[p] += dtdx * (l2m*vzz + l*(vxx+vyy))

				// sxy at (i+1/2, j+1/2, k): harmonic mean of mu over 4 pts
				mxy := harmonic4(mu[p], mu[p+sx], mu[p+sy], mu[p+sx+sy])
				dxy := C1*(u[p+sy]-u[p]) + C2*(u[p+2*sy]-u[p-sy]) +
					C1*(v[p+sx]-v[p]) + C2*(v[p+2*sx]-v[p-sx])
				xy[p] += dtdx * mxy * dxy

				// sxz at (i+1/2, j, k+1/2)
				mxz := harmonic4(mu[p], mu[p+sx], mu[p+1], mu[p+sx+1])
				dxz := C1*(u[p+1]-u[p]) + C2*(u[p+2]-u[p-1]) +
					C1*(w[p+sx]-w[p]) + C2*(w[p+2*sx]-w[p-sx])
				xz[p] += dtdx * mxz * dxz

				// syz at (i, j+1/2, k+1/2)
				myz := harmonic4(mu[p], mu[p+sy], mu[p+1], mu[p+sy+1])
				dyz := C1*(v[p+1]-v[p]) + C2*(v[p+2]-v[p-1]) +
					C1*(w[p+sy]-w[p]) + C2*(w[p+2*sy]-w[p-sy])
				yz[p] += dtdx * myz * dyz
			}
		}
	}
}

// refSponge is the full-volume Cerjan sponge: one float32 factor per
// interior point of the block, built with three exponentials per point.
type refSponge struct {
	nx, ny, nz int
	damp       []float32
}

func newRefSponge(gnx, gny, gnz, width int, alpha float64, i0, j0, nx, ny, nz int) *refSponge {
	s := &refSponge{nx: nx, ny: ny, nz: nz, damp: make([]float32, nx*ny*nz)}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				d := 1.0
				d *= cerjan(i0+i, gnx, width, alpha, true, true)
				d *= cerjan(j0+j, gny, width, alpha, true, true)
				d *= cerjan(k, gnz, width, alpha, false, true) // no damping at the free surface
				s.damp[(i*ny+j)*nz+k] = float32(d)
			}
		}
	}
	return s
}

func (s *refSponge) factor(i, j, k int) float32 { return s.damp[(i*s.ny+j)*s.nz+k] }

func (s *refSponge) applyRegion(wf *Wavefield, r grid.Region) {
	fields := wf.AllFields()
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			dRow := s.damp[(i*s.ny+j)*s.nz:]
			for _, f := range fields {
				row := f.Row(i, j)
				for k := r.K0; k < r.K1; k++ {
					row[k] *= dRow[k]
				}
			}
		}
	}
}

func refAttenuationApplyRegion(a *Attenuation, wf *Wavefield, r grid.Region) {
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			gp := a.GP.Row(i, j)
			gs := a.GS.Row(i, j)
			xx, yy, zz := wf.XX.Row(i, j), wf.YY.Row(i, j), wf.ZZ.Row(i, j)
			xy, xz, yz := wf.XY.Row(i, j), wf.XZ.Row(i, j), wf.YZ.Row(i, j)
			for k := r.K0; k < r.K1; k++ {
				xx[k] *= gp[k]
				yy[k] *= gp[k]
				zz[k] *= gp[k]
				xy[k] *= gs[k]
				xz[k] *= gs[k]
				yz[k] *= gs[k]
			}
		}
	}
}

// refApplyFreeSurfaceCols is the image condition written with the fields'
// accessors, one index computation per value.
func refApplyFreeSurfaceCols(wf *Wavefield, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			for g := 1; g <= Halo; g++ {
				// antisymmetric tractions
				wf.ZZ.Set(i, j, -g, -wf.ZZ.At(i, j, g-1))
				wf.XZ.Set(i, j, -g, -wf.XZ.At(i, j, g-1))
				wf.YZ.Set(i, j, -g, -wf.YZ.At(i, j, g-1))
				// symmetric velocities
				wf.U.Set(i, j, -g, wf.U.At(i, j, g-1))
				wf.V.Set(i, j, -g, wf.V.At(i, j, g-1))
				wf.W.Set(i, j, -g, wf.W.At(i, j, g-1))
			}
		}
	}
}
