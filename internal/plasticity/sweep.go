package plasticity

import (
	"math"

	"swquake/internal/cpu"
	"swquake/internal/fd"
	"swquake/internal/grid"
)

// ApplyRegion performs the yield check and return map over a region
// (kernels drprecpc_calc + drprecpc_app fused) and returns the number of
// yielded points; dt is used only when Tv > 0. The kernel is per-cell
// independent (it reads and writes only the cell it stands on), so any
// disjoint partition yields bit-identical stresses and — because the
// yielded count is an integer sum — an identical count.
//
// Like the fd sweep kernels it is a per-column driver that slices the
// twelve operand z-rows once and hands them to a row function whose inner
// loop carries no index checks (`make check-bce`). The six stresses share
// one index; each parameter is sliced at its own, so one stored at a lower
// rank (grid.NewProfile) hands every column the same row.
func ApplyRegion(wf *fd.Wavefield, p *Params, dt float64, r grid.Region) int {
	if r.Empty() {
		return 0
	}
	n := r.K1 - r.K0
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	yldFac := p.YldFac
	if yldFac == nil {
		// nobody keeps the per-cell record: the factors go to a row of this
		// call's own, so concurrent tiles share nothing and no array is
		// written only to be evicted
		yldFac = grid.NewProfile(p.D, fd.Halo)
	}
	cohes, sphi, cphi := p.Cohes, p.SinPhi, p.CosPhi
	pf, sig2 := p.FluidPres, p.Sigma2

	// viscoplastic relaxation factor: r' = r + (1-r)*exp(-dt/Tv)
	relax := float32(0)
	if p.Tv > 0 {
		relax = float32(math.Exp(-dt / p.Tv))
	}

	yielded := 0
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			q := wf.XX.Idx(i, j, r.K0)
			yielded += returnMapRowAt(xx[q:][:n], yy[q:], zz[q:], xy[q:], xz[q:], yz[q:],
				rowAt(cohes, i, j, r.K0), rowAt(sphi, i, j, r.K0), rowAt(cphi, i, j, r.K0),
				rowAt(pf, i, j, r.K0), rowAt(sig2, i, j, r.K0), rowAt(yldFac, i, j, r.K0), relax)
		}
	}
	return yielded
}

// rowAt is f's z-row at column (i,j) from depth k on.
func rowAt(f *grid.Field, i, j, k int) []float32 { return f.Data[f.Idx(i, j, k):] }

// returnMapRowAt runs the yield check and return map along one z-row and
// returns the number of yielded cells. Where the assembly yield check is in
// use it clears the whole groups of eight cells that are elastic in every
// lane — nearly all of them — and only a group with a lane that yields, or
// holds a NaN, is handed whole to the Go row, which recomputes it; so is
// the tail. The return map itself exists in Go alone.
func returnMapRowAt(xx, yy, zz, xy, xz, yz, cohes, sphi, cphi, pf, sig2, yld []float32, relax float32) int {
	yielded, m := 0, 0
	for cpu.AVX2 && len(xx)-m >= 8 {
		m += elasticRowVec(xx[m:], yy[m:], zz[m:], xy[m:], xz[m:], yz[m:],
			cohes[m:], sphi[m:], cphi[m:], pf[m:], sig2[m:], yld[m:])
		if len(xx)-m < 8 {
			break
		}
		yielded += returnMapRow(xx[m:m+8], yy[m:], zz[m:], xy[m:], xz[m:], yz[m:],
			cohes[m:], sphi[m:], cphi[m:], pf[m:], sig2[m:], yld[m:], relax)
		m += 8
	}
	return yielded + returnMapRow(xx[m:], yy[m:], zz[m:], xy[m:], xz[m:], yz[m:],
		cohes[m:], sphi[m:], cphi[m:], pf[m:], sig2[m:], yld[m:], relax)
}

// returnMapRow is the Go row: the definition of the bits, the tail, and the
// only code that applies the return map.
func returnMapRow(xx, yy, zz, xy, xz, yz, cohes, sphi, cphi, pf, sig2, yld []float32, relax float32) int {
	n := len(xx)
	yy, zz, xy, xz, yz = yy[:n], zz[:n], xy[:n], xz[:n], yz[:n]
	cohes, sphi, cphi = cohes[:n], sphi[:n], cphi[:n]
	pf, sig2, yld = pf[:n], sig2[:n], yld[:n]

	yielded := 0
	for k := range xx {
		// total stress = initial lithostatic + dynamic perturbation
		txx := xx[k] + sig2[k]
		tyy := yy[k] + sig2[k]
		tzz := zz[k] + sig2[k]
		sm := (txx + tyy + tzz) * (1.0 / 3.0)

		dxx, dyy, dzz := txx-sm, tyy-sm, tzz-sm
		txy, txz, tyz := xy[k], xz[k], yz[k]
		// τ̄ = sqrt(J2)
		j2 := 0.5*(dxx*dxx+dyy*dyy+dzz*dzz) + txy*txy + txz*txz + tyz*tyz
		tau := float32(math.Sqrt(float64(j2)))

		y := cohes[k]*cphi[k] - (sm+pf[k])*sphi[k]
		if y < 0 {
			y = 0
		}
		if tau <= y || tau == 0 {
			yld[k] = 1
			continue
		}
		r := y / tau
		if relax > 0 {
			r = r + (1-r)*relax
		}
		yld[k] = r
		yielded++

		// return map: scale deviator, keep mean stress; store back as
		// dynamic perturbation (subtract lithostatic part again)
		xx[k] = sm + r*dxx - sig2[k]
		yy[k] = sm + r*dyy - sig2[k]
		zz[k] = sm + r*dzz - sig2[k]
		xy[k] = r * txy
		xz[k] = r * txz
		yz[k] = r * tyz
	}
	return yielded
}
