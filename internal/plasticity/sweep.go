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
// Like the fd sweep kernels it walks the region plane by plane
// (internal/fd/sweep.go has the shape). The six stresses share one index and column stride; each
// parameter is sliced at its own, so one stored at a lower rank
// (grid.NewProfile, column stride 0) hands every column the same row.
func ApplyRegion(wf *fd.Wavefield, p *Params, dt float64, r grid.Region) int {
	if r.Empty() {
		return 0
	}
	fields := [operands]*grid.Field{wf.XX, wf.YY, wf.ZZ, wf.XY, wf.XZ, wf.YZ,
		p.Cohes, p.SinPhi, p.CosPhi, p.FluidPres, p.Sigma2}
	pl := plane{n: r.K1 - r.K0, cols: r.J1 - r.J0}
	for c, f := range fields {
		pl.stride[c] = f.StrideY()
	}

	// viscoplastic relaxation factor: r' = r + (1-r)*exp(-dt/Tv)
	relax := float32(0)
	if p.Tv > 0 {
		relax = float32(math.Exp(-dt / p.Tv))
	}

	yielded := 0
	for i := r.I0; i < r.I1; i++ {
		for c, f := range fields {
			pl.op[c] = f.Data[f.Idx(i, r.J0, r.K0):]
		}
		yielded += returnMapPlane(&pl, relax)
	}
	return yielded
}

// operands is how many arrays the kernel reads: six stresses, then
// cohesion, sin φ, cos φ, fluid pressure and σ2.
const operands = 11

// plane is one i-plane of a region as returnMapPlane walks it: cols columns
// of n cells, each operand from the region's first column on, column c's
// cells stride[c] elements (0 for a profile) past the column before.
type plane struct {
	n, cols int
	op      [operands][]float32
	stride  [operands]int
}

// row runs the Go row on cells [k, k+n) of column j and returns how many
// yielded.
func (pl *plane) row(j, k, n int, relax float32) int {
	var o [operands][]float32
	for c := range o {
		o[c] = pl.op[c][j*pl.stride[c]+k:]
	}
	return returnMapRow(o[0][:n], o[1], o[2], o[3], o[4], o[5], o[6], o[7], o[8], o[9], o[10], relax)
}

// returnMapPlane runs the yield check and return map over the columns of a
// plane and returns the number of yielded cells. Where the assembly yield
// check is in use it clears the whole groups of eight cells that are
// elastic in every lane — nearly all of them — in one call for the plane;
// the call stops at a group with a lane that yields, or holds a NaN, which
// is handed whole to the Go row, which recomputes it, and then the
// assembly resumes behind it. Each column's tail goes to the Go row too.
// The return map itself exists in Go alone.
func returnMapPlane(pl *plane, relax float32) int {
	yielded, m := 0, 0
	if cpu.AVX2 {
		m = pl.n &^ 7
	}
	if m > 0 {
		for j, k := elasticPlaneVec(pl, m, 0, 0); j < pl.cols; j, k = elasticPlaneVec(pl, m, j, k) {
			yielded += pl.row(j, k, 8, relax)
			if k += 8; k == m {
				j, k = j+1, 0
			}
		}
	}
	for j := 0; m < pl.n && j < pl.cols; j++ {
		yielded += pl.row(j, m, pl.n-m, relax)
	}
	return yielded
}

// returnMapRow is the Go row: the definition of the bits, the tail, and the
// only code that applies the return map.
func returnMapRow(xx, yy, zz, xy, xz, yz, cohes, sphi, cphi, pf, sig2 []float32, relax float32) int {
	n := len(xx)
	yy, zz, xy, xz, yz = yy[:n], zz[:n], xy[:n], xz[:n], yz[:n]
	cohes, sphi, cphi = cohes[:n], sphi[:n], cphi[:n]
	pf, sig2 = pf[:n], sig2[:n]

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
			continue
		}
		r := y / tau
		if relax > 0 {
			r = r + (1-r)*relax
		}
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
