package fd

import "swquake/internal/grid"

// The sweep kernels (velocity, stress, sponge, attenuation; plasticity in
// its own package) share one shape: the region function walks the region's
// i-planes and, per plane, slices every operand once at the region's first
// column — a[p+off:], where p is the index of (i, J0, K0) and off the
// stencil offset — and hands them to a plane function with the plane's
// shape: how many columns, how many cells each, and how far apart. The
// plane function runs the leading whole vectors of every column in ONE call
// to the AVX2 assembly (sweep_amd64.s), which cpu.AVX2 selects, and the
// rest of each column — or all of it, where the assembly is not in use — in
// a Go row function, which stays the definition of the bits. A row function
// cuts each operand to the output's length (one slice check per operand per
// row) and then loops `for k := range out`, which the compiler proves in
// bounds for every operand: the inner loops carry no index checks (`make
// check-bce` pins that). The arithmetic of each row function is, operation
// for operation and in the same order, that of the flat-index loops kept in
// sweep_ref_test.go, which the property tests compare against bit for bit;
// the assembly computes the same bits eight cells at a time. A 4-point
// derivative is passed as one operand starting at its lowest tap plus a
// stride in elements.

// plane is the shape of one i-plane of a region as the plane functions walk
// it: cols columns of n cells, column c's cells at c*cs elements past the
// first column's in every operand that moves with the fields (an operand
// stored at a lower rank comes with a column stride of its own, 0 for a
// profile).
type plane struct{ n, cols, cs int }

// UpdateVelocityRegion advances the velocity components over the region.
func UpdateVelocityRegion(wf *Wavefield, med *Medium, dtdx float32, r grid.Region) {
	if r.Empty() {
		return
	}
	sx, sy := wf.U.StrideX(), wf.U.StrideY()
	pl := plane{n: r.K1 - r.K0, cols: r.J1 - r.J0, cs: sy}
	u, v, w := wf.U.Data, wf.V.Data, wf.W.Data
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	rho := med.Rho.Data

	for i := r.I0; i < r.I1; i++ {
		p := wf.U.Idx(i, r.J0, r.K0)
		// Each derivative starts at its lowest tap: one stride below p for a
		// forward stencil, two below for a backward one.
		// u at (i+1/2, j, k): rho averaged along x
		velocityPlane(pl, u[p:], dtdx, rho[p:], rho[p+sx:],
			xx[p-sx:], sx, xy[p-2*sy:], sy, xz[p-2:])
		// v at (i, j+1/2, k): rho averaged along y
		velocityPlane(pl, v[p:], dtdx, rho[p:], rho[p+sy:],
			xy[p-2*sx:], sx, yy[p-sy:], sy, yz[p-2:])
		// w at (i, j, k+1/2): rho averaged along z
		velocityPlane(pl, w[p:], dtdx, rho[p:], rho[p+1:],
			xz[p-2*sx:], sx, yz[p-2*sy:], sy, zz[p-1:])
	}
}

// velocityPlane advances one velocity component over the columns of a
// plane. a and b start at the lowest tap of a derivative with element
// stride as, bs; c is the z derivative (stride 1). With f = a[as:] the taps
// of velocityRow are f1 = a[2*as:], f0 = a[as:], f2 = a[3*as:], f3 = a.
func velocityPlane(pl plane, out []float32, dtdx float32, r0, r1, a []float32, as int, b []float32, bs int, c []float32) {
	m := velocityPlaneVec(pl, out, dtdx, r0, r1, a, as, b, bs, c)
	for j, q := 0, m; m < pl.n && j < pl.cols; j, q = j+1, q+pl.cs {
		velocityRow(out[q:][:pl.n-m], dtdx, r0[q:], r1[q:],
			a[q+2*as:], a[q+as:], a[q+3*as:], a[q:],
			b[q+2*bs:], b[q+bs:], b[q+3*bs:], b[q:],
			c[q+2:], c[q+1:], c[q+3:], c[q:])
	}
}

// velocityRow advances one velocity component along a z-row:
//
//	out += dtdx*2/(r0+r1) * (D(a) + D(b) + D(c))
//
// where r0,r1 are the two densities the component's staggered position
// averages and D(f) = C1*(f1-f0) + C2*(f2-f3) is the 4th-order derivative
// of one stress component (f1,f0 the inner pair, f2,f3 the outer pair).
func velocityRow(out []float32, dtdx float32, r0, r1,
	a1, a0, a2, a3, b1, b0, b2, b3, c1, c0, c2, c3 []float32) {
	n := len(out)
	r0, r1 = r0[:n], r1[:n]
	a1, a0, a2, a3 = a1[:n], a0[:n], a2[:n], a3[:n]
	b1, b0, b2, b3 = b1[:n], b0[:n], b2[:n], b3[:n]
	c1, c0, c2, c3 = c1[:n], c0[:n], c2[:n], c3[:n]
	for k := range out {
		rr := dtdx * 2 / (r0[k] + r1[k])
		d := C1*(a1[k]-a0[k]) + C2*(a2[k]-a3[k]) +
			C1*(b1[k]-b0[k]) + C2*(b2[k]-b3[k]) +
			C1*(c1[k]-c0[k]) + C2*(c2[k]-c3[k])
		out[k] += rr * d
	}
}

// UpdateStressRegion advances the stress components over the region. Per
// plane it runs the diagonal stresses (xx,yy,zz) once and the shared shear
// plane function three times (xy, xz, yz); the shear functions read the
// medium's reciprocal shear modulus, so the four-point harmonic mean costs
// one divide instead of five.
func UpdateStressRegion(wf *Wavefield, med *Medium, dtdx float32, r grid.Region) {
	if r.Empty() {
		return
	}
	sx, sy := wf.U.StrideX(), wf.U.StrideY()
	pl := plane{n: r.K1 - r.K0, cols: r.J1 - r.J0, cs: sy}
	u, v, w := wf.U.Data, wf.V.Data, wf.W.Data
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	lam, mu, rm := med.Lam.Data, med.Mu.Data, med.recipMu().Data

	for i := r.I0; i < r.I1; i++ {
		p := wf.U.Idx(i, r.J0, r.K0)
		// the centred gradients are backward stencils: operands start two
		// strides below p; the shear ones are forward: one stride below
		stressDiagPlane(pl, xx[p:], yy[p:], zz[p:], dtdx, lam[p:], mu[p:],
			u[p-2*sx:], sx, v[p-2*sy:], sy, w[p-2:])
		// sxy at (i+1/2, j+1/2, k): mu over (i,j) (i+1,j) (i,j+1) (i+1,j+1)
		stressShearPlane(pl, xy[p:], dtdx, rm[p:], rm[p+sx:], rm[p+sy:], rm[p+sx+sy:],
			u[p-sy:], sy, v[p-sx:], sx)
		// sxz at (i+1/2, j, k+1/2)
		stressShearPlane(pl, xz[p:], dtdx, rm[p:], rm[p+sx:], rm[p+1:], rm[p+sx+1:],
			u[p-1:], 1, w[p-sx:], sx)
		// syz at (i, j+1/2, k+1/2)
		stressShearPlane(pl, yz[p:], dtdx, rm[p:], rm[p+sy:], rm[p+1:], rm[p+sy+1:],
			v[p-1:], 1, w[p-sy:], sy)
	}
}

// stressDiagPlane advances the three diagonal stresses over the columns of
// a plane. u and v start at the lowest tap (two strides below the cell) of
// the backward derivative along their own axis, w is the same along z.
func stressDiagPlane(pl plane, xx, yy, zz []float32, dtdx float32, lam, mu, u []float32, us int, v []float32, vs int, w []float32) {
	m := stressDiagPlaneVec(pl, xx, yy, zz, dtdx, lam, mu, u, us, v, vs, w)
	for j, q := 0, m; m < pl.n && j < pl.cols; j, q = j+1, q+pl.cs {
		stressDiagRow(xx[q:][:pl.n-m], yy[q:], zz[q:], dtdx, lam[q:], mu[q:],
			u[q+2*us:], u[q+us:], u[q+3*us:], u[q:],
			v[q+2*vs:], v[q+vs:], v[q+3*vs:], v[q:],
			w[q+2:], w[q+1:], w[q+3:], w[q:])
	}
}

// stressDiagRow advances the three diagonal stresses along a z-row from the
// velocity gradients at the cell centre. Operand order per velocity
// component: centre, -1, +1, -2 along its own axis.
func stressDiagRow(xx, yy, zz []float32, dtdx float32, lam, mu,
	u0, um1, up1, um2, v0, vm1, vp1, vm2, w0, wm1, wp1, wm2 []float32) {
	n := len(xx)
	yy, zz, lam, mu = yy[:n], zz[:n], lam[:n], mu[:n]
	u0, um1, up1, um2 = u0[:n], um1[:n], up1[:n], um2[:n]
	v0, vm1, vp1, vm2 = v0[:n], vm1[:n], vp1[:n], vm2[:n]
	w0, wm1, wp1, wm2 = w0[:n], wm1[:n], wp1[:n], wm2[:n]
	for k := range xx {
		vxx := C1*(u0[k]-um1[k]) + C2*(up1[k]-um2[k])
		vyy := C1*(v0[k]-vm1[k]) + C2*(vp1[k]-vm2[k])
		vzz := C1*(w0[k]-wm1[k]) + C2*(wp1[k]-wm2[k])

		l, m := lam[k], mu[k]
		l2m := l + 2*m
		tr := vyy + vzz
		xx[k] += dtdx * (l2m*vxx + l*tr)
		yy[k] += dtdx * (l2m*vyy + l*(vxx+vzz))
		zz[k] += dtdx * (l2m*vzz + l*(vxx+vyy))
	}
}

// stressShearPlane advances one shear stress over the columns of a plane; a
// and b start at the lowest tap of a derivative with element stride as, bs,
// as in velocityPlane.
func stressShearPlane(pl plane, out []float32, dtdx float32, ra, rb, rc, rd, a []float32, as int, b []float32, bs int) {
	m := stressShearPlaneVec(pl, out, dtdx, ra, rb, rc, rd, a, as, b, bs)
	for j, q := 0, m; m < pl.n && j < pl.cols; j, q = j+1, q+pl.cs {
		stressShearRow(out[q:][:pl.n-m], dtdx, ra[q:], rb[q:], rc[q:], rd[q:],
			a[q+2*as:], a[q+as:], a[q+3*as:], a[q:],
			b[q+2*bs:], b[q+bs:], b[q+3*bs:], b[q:])
	}
}

// stressShearRow advances one shear stress along a z-row:
//
//	out += dtdx * 4/(ra+rb+rc+rd) * (D(a) + D(b))
//
// ra..rd are the reciprocal shear moduli of the four cells around the
// component's staggered position. 4/(sum of reciprocals) is the harmonic
// mean 4/(1/a+1/b+1/c+1/d) with the four divides hoisted into the medium:
// the same float32 operations in the same order, hence the same bits. A
// fluid cell (mu = 0) has reciprocal +Inf, the sum is +Inf and 4/+Inf = +0,
// which is what the oracle's harmonic4 (sweep_ref_test.go) returns for it
// explicitly. D is the derivative of
// velocityRow.
func stressShearRow(out []float32, dtdx float32, ra, rb, rc, rd,
	a1, a0, a2, a3, b1, b0, b2, b3 []float32) {
	n := len(out)
	ra, rb, rc, rd = ra[:n], rb[:n], rc[:n], rd[:n]
	a1, a0, a2, a3 = a1[:n], a0[:n], a2[:n], a3[:n]
	b1, b0, b2, b3 = b1[:n], b0[:n], b2[:n], b3[:n]
	for k := range out {
		m := 4 / (ra[k] + rb[k] + rc[k] + rd[k])
		d := C1*(a1[k]-a0[k]) + C2*(a2[k]-a3[k]) +
			C1*(b1[k]-b0[k]) + C2*(b2[k]-b3[k])
		out[k] += dtdx * m * d
	}
}

// ApplyRegion multiplies the nine dynamic fields by the damping profile
// over the region. Only the boundary shells are touched: a column outside
// the x and y zones (cx*cy == 1) is damped from the top of the bottom zone
// down, and not at all above it — multiplying by 1.0 leaves every value
// arithmetic can produce (-0, denormals, ±Inf, quiet NaNs) bit for bit as
// it was, so skipping it is exact.
func (s *Sponge) ApplyRegion(wf *Wavefield, r grid.Region) {
	s.apply(r, wf.U, wf.V, wf.W, wf.XX, wf.YY, wf.ZZ, wf.XY, wf.XZ, wf.YZ)
}

// ApplyStressRegion is ApplyRegion for the six stresses alone: the half of
// the sponge that touches only what the stress-side chain of one cell
// writes, so the engine runs it inside that chain.
func (s *Sponge) ApplyStressRegion(wf *Wavefield, r grid.Region) {
	s.apply(r, wf.XX, wf.YY, wf.ZZ, wf.XY, wf.XZ, wf.YZ)
}

// ApplyVelocityRegion is ApplyRegion for the three velocities alone. Stress
// stencils of neighbouring cells read them, so the engine runs it once the
// whole block's stress kernel is done.
func (s *Sponge) ApplyVelocityRegion(wf *Wavefield, r grid.Region) {
	s.apply(r, wf.U, wf.V, wf.W)
}

// spongeFactors is how many factors apply forms at a time for the columns
// inside the x or y zones: a fixed size keeps them on the stack, so tiles
// that damp concurrently share nothing.
const spongeFactors = 1024

// apply damps the given fields over the region. Per i-plane it cuts the
// region's columns into runs of one kind and scales each field over a run
// in one plane call: a run outside the x and y zones shares the stored
// factor row from the top of the bottom zone down (column stride 0); a run
// inside them gets its factor rows formed on the stack, as many columns at
// a time as spongeFactors holds.
func (s *Sponge) apply(r grid.Region, fields ...*grid.Field) {
	if r.Empty() {
		return
	}
	var factors [spongeFactors]float32
	for di, cx := range s.cx[r.I0:r.I1] {
		// cy is what is left of the plane's columns, from column j on
		for cy, j := s.cy[r.J0:r.J1], r.J0; len(cy) > 0; {
			outside := cx*cy[0] == 1
			run := 1
			for run < len(cy) && (cx*cy[run] == 1) == outside {
				run++
			}
			switch k0 := max(r.K0, s.kz0); {
			case !outside:
				s.applyInside(cx, cy[:run], r.I0+di, j, r, fields, &factors)
			case k0 < r.K1: // the stored row, from the top of the bottom zone down
				for _, f := range fields {
					scalePlane(plane{n: r.K1 - k0, cols: run, cs: f.StrideY()},
						f.Data[f.Idx(r.I0+di, j, k0):], s.czf[k0:r.K1], 0)
				}
			}
			cy, j = cy[run:], j+run
		}
	}
}

// applyInside damps the columns from (i, j0) on whose y profile values are
// cy, which lie inside the x or y zones, over the region's whole depth:
// their factor rows float32(cx*cy[j]*cz[k]) are formed in buf, as many
// columns at a time as it holds.
func (s *Sponge) applyInside(cx float64, cy []float64, i, j0 int, r grid.Region, fields []*grid.Field, buf *[spongeFactors]float32) {
	for k0 := r.K0; k0 < r.K1; k0 += spongeFactors {
		n := min(spongeFactors, r.K1-k0)
		per := spongeFactors / n
		for a := 0; a < len(cy); a += per {
			batch := cy[a:min(a+per, len(cy))]
			d := buf[:len(batch)*n]
			for c, cyj := range batch {
				spongeFactorRow(d[c*n:][:n], cx*cyj, s.cz[k0:])
			}
			for _, f := range fields {
				scalePlane(plane{n: n, cols: len(batch), cs: f.StrideY()}, f.Data[f.Idx(i, j0+a, k0):], d, n)
			}
		}
	}
}

// spongeFactorRow fills d with float32(cxy*cz[k]), the factor formed
// exactly as Factor forms it.
func spongeFactorRow(d []float32, cxy float64, cz []float64) {
	cz = cz[:len(d)]
	for k := range d {
		d[k] = float32(cxy * cz[k])
	}
}

// scalePlane multiplies the columns of a plane of a field by factor rows of
// their length, column c's at c*fs elements past f (fs = 0: one row shared
// by every column).
func scalePlane(pl plane, x, f []float32, fs int) {
	if scalePlaneVec(pl, x, f, fs) {
		return
	}
	for j := 0; j < pl.cols; j++ {
		scaleRow(x[j*pl.cs:][:pl.n], f[j*fs:])
	}
}

// scaleRow is x[k] *= f[k].
func scaleRow(x, f []float32) {
	f = f[:len(x)]
	for k := range x {
		x[k] *= f[k]
	}
}

// ApplyRegion damps the stress components over the region: diagonal
// stresses by the P factor, shear stresses by the S factor.
func (a *Attenuation) ApplyRegion(wf *Wavefield, r grid.Region) {
	if r.Empty() {
		return
	}
	pl := plane{n: r.K1 - r.K0, cols: r.J1 - r.J0, cs: wf.XX.StrideY()}
	gp, gs := a.GP.Data, a.GS.Data
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	for i := r.I0; i < r.I1; i++ {
		// the factors at their own index and column stride: they may be
		// stored at a lower rank than the stresses (grid.NewProfile)
		p := wf.XX.Idx(i, r.J0, r.K0)
		attenuationPlane(pl, gp[a.GP.Idx(i, r.J0, r.K0):], a.GP.StrideY(), gs[a.GS.Idx(i, r.J0, r.K0):], a.GS.StrideY(),
			xx[p:], yy[p:], zz[p:], xy[p:], xz[p:], yz[p:])
	}
}

// attenuationPlane damps the six stresses over the columns of a plane;
// the factors' columns are ps and ss elements apart.
func attenuationPlane(pl plane, gp []float32, ps int, gs []float32, ss int, xx, yy, zz, xy, xz, yz []float32) {
	m := attenuationPlaneVec(pl, gp, ps, gs, ss, xx, yy, zz, xy, xz, yz)
	for j := 0; m < pl.n && j < pl.cols; j++ {
		q := j*pl.cs + m
		attenuationRow(gp[j*ps+m:][:pl.n-m], gs[j*ss+m:], xx[q:], yy[q:], zz[q:], xy[q:], xz[q:], yz[q:])
	}
}

// attenuationRow damps one z-row of the six stresses.
func attenuationRow(gp, gs, xx, yy, zz, xy, xz, yz []float32) {
	n := len(gp)
	gs = gs[:n]
	xx, yy, zz = xx[:n], yy[:n], zz[:n]
	xy, xz, yz = xy[:n], xz[:n], yz[:n]
	for k := range gp {
		xx[k] *= gp[k]
		yy[k] *= gp[k]
		zz[k] *= gp[k]
		xy[k] *= gs[k]
		xz[k] *= gs[k]
		yz[k] *= gs[k]
	}
}
