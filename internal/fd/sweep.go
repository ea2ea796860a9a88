package fd

import "swquake/internal/grid"

// The sweep kernels (velocity, stress, sponge, attenuation; plasticity in
// its own package) share one shape: a driver walks the (i,j) columns of the
// region and, per column, slices every operand's z-row once — a[p+off:],
// where off is the stencil offset — and hands the rows to a small row
// function. The row function cuts each operand to the output's length
// (one slice check per operand per row) and then loops `for k := range
// out`, which the compiler proves in bounds for every operand: the inner
// loops carry no index checks (`make check-bce` pins that). The arithmetic
// of each row function is, operation for operation and in the same order,
// that of the flat-index loops kept in sweep_ref_test.go, which the
// property tests compare against bit for bit.
//
// Every row also exists as AVX2 assembly (sweep_amd64.s), which computes
// the same bits eight cells at a time; cpu.AVX2 selects it. The drivers
// pass a 4-point derivative as one row starting at its lowest tap plus a
// stride in elements, and a *RowAt function runs the leading whole vectors
// of the row in assembly and the remaining cells — or all of them, where
// the assembly is not in use — in the Go row, which stays the definition of
// the bits.

// UpdateVelocityRegion advances the velocity components over the region.
func UpdateVelocityRegion(wf *Wavefield, med *Medium, dtdx float32, r grid.Region) {
	if r.Empty() {
		return
	}
	n := r.K1 - r.K0
	sx, sy := wf.U.StrideX(), wf.U.StrideY()
	u, v, w := wf.U.Data, wf.V.Data, wf.W.Data
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	rho := med.Rho.Data

	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			p := wf.U.Idx(i, j, r.K0)
			// Each derivative row starts at its lowest tap: one stride
			// below p for a forward stencil, two below for a backward one.
			// u at (i+1/2, j, k): rho averaged along x
			velocityRowAt(u[p:][:n], dtdx, rho[p:], rho[p+sx:],
				xx[p-sx:], sx, xy[p-2*sy:], sy, xz[p-2:])
			// v at (i, j+1/2, k): rho averaged along y
			velocityRowAt(v[p:][:n], dtdx, rho[p:], rho[p+sy:],
				xy[p-2*sx:], sx, yy[p-sy:], sy, yz[p-2:])
			// w at (i, j, k+1/2): rho averaged along z
			velocityRowAt(w[p:][:n], dtdx, rho[p:], rho[p+1:],
				xz[p-2*sx:], sx, yz[p-2*sy:], sy, zz[p-1:])
		}
	}
}

// velocityRowAt advances one velocity component along a z-row. a and b
// start at the lowest tap of a derivative with element stride as, bs; c is
// the z derivative (stride 1). With f = a[as:] the taps of velocityRow are
// f1 = a[2*as:], f0 = a[as:], f2 = a[3*as:], f3 = a.
func velocityRowAt(out []float32, dtdx float32, r0, r1, a []float32, as int, b []float32, bs int, c []float32) {
	m := velocityRowVec(out, dtdx, r0, r1, a, as, b, bs, c)
	if m == len(out) {
		return
	}
	velocityRow(out[m:], dtdx, r0[m:], r1[m:],
		a[m+2*as:], a[m+as:], a[m+3*as:], a[m:],
		b[m+2*bs:], b[m+bs:], b[m+3*bs:], b[m:],
		c[m+2:], c[m+1:], c[m+3:], c[m:])
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
// column it runs one diagonal row loop (xx,yy,zz) and the shared shear row
// loop three times (xy, xz, yz); the shear loops read the medium's
// reciprocal shear modulus, so the four-point harmonic mean costs one
// divide instead of five.
func UpdateStressRegion(wf *Wavefield, med *Medium, dtdx float32, r grid.Region) {
	if r.Empty() {
		return
	}
	n := r.K1 - r.K0
	sx, sy := wf.U.StrideX(), wf.U.StrideY()
	u, v, w := wf.U.Data, wf.V.Data, wf.W.Data
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	lam, mu, rm := med.Lam.Data, med.Mu.Data, med.recipMu().Data

	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			p := wf.U.Idx(i, j, r.K0)
			// the centred gradients are backward stencils: rows start two
			// strides below p; the shear ones are forward: one stride below
			stressDiagRowAt(xx[p:][:n], yy[p:], zz[p:], dtdx, lam[p:], mu[p:],
				u[p-2*sx:], sx, v[p-2*sy:], sy, w[p-2:])
			// sxy at (i+1/2, j+1/2, k): mu over (i,j) (i+1,j) (i,j+1) (i+1,j+1)
			stressShearRowAt(xy[p:][:n], dtdx, rm[p:], rm[p+sx:], rm[p+sy:], rm[p+sx+sy:],
				u[p-sy:], sy, v[p-sx:], sx)
			// sxz at (i+1/2, j, k+1/2)
			stressShearRowAt(xz[p:][:n], dtdx, rm[p:], rm[p+sx:], rm[p+1:], rm[p+sx+1:],
				u[p-1:], 1, w[p-sx:], sx)
			// syz at (i, j+1/2, k+1/2)
			stressShearRowAt(yz[p:][:n], dtdx, rm[p:], rm[p+sy:], rm[p+1:], rm[p+sy+1:],
				v[p-1:], 1, w[p-sy:], sy)
		}
	}
}

// stressDiagRowAt advances the three diagonal stresses along a z-row. u and
// v start at the lowest tap (two strides below the cell) of the backward
// derivative along their own axis, w is the same along z.
func stressDiagRowAt(xx, yy, zz []float32, dtdx float32, lam, mu, u []float32, us int, v []float32, vs int, w []float32) {
	m := stressDiagRowVec(xx, yy, zz, dtdx, lam, mu, u, us, v, vs, w)
	if m == len(xx) {
		return
	}
	stressDiagRow(xx[m:], yy[m:], zz[m:], dtdx, lam[m:], mu[m:],
		u[m+2*us:], u[m+us:], u[m+3*us:], u[m:],
		v[m+2*vs:], v[m+vs:], v[m+3*vs:], v[m:],
		w[m+2:], w[m+1:], w[m+3:], w[m:])
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

// stressShearRowAt advances one shear stress along a z-row; a and b start
// at the lowest tap of a derivative with element stride as, bs, as in
// velocityRowAt.
func stressShearRowAt(out []float32, dtdx float32, ra, rb, rc, rd, a []float32, as int, b []float32, bs int) {
	m := stressShearRowVec(out, dtdx, ra, rb, rc, rd, a, as, b, bs)
	if m == len(out) {
		return
	}
	stressShearRow(out[m:], dtdx, ra[m:], rb[m:], rc[m:], rd[m:],
		a[m+2*as:], a[m+as:], a[m+3*as:], a[m:],
		b[m+2*bs:], b[m+bs:], b[m+3*bs:], b[m:])
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

// spongeChunk is the length of the factor row apply forms at a time: a
// fixed size keeps the scratch on the stack.
const spongeChunk = 256

// apply damps the given fields over the region. Per
// damped column it takes the float32 factor row — the stored one where the
// column is outside the x and y zones, formed in scratch otherwise — and
// multiplies it into each field's z-row.
func (s *Sponge) apply(r grid.Region, fields ...*grid.Field) {
	if r.Empty() {
		return
	}
	var scratch [spongeChunk]float32
	for di, cx := range s.cx[r.I0:r.I1] {
		for dj, cy := range s.cy[r.J0:r.J1] {
			cxy := cx * cy
			k0 := r.K0
			if cxy == 1 && k0 < s.kz0 {
				k0 = s.kz0
			}
			for ; k0 < r.K1; k0 += spongeChunk {
				k1 := min(k0+spongeChunk, r.K1)
				d := s.czf[k0:k1]
				if cxy != 1 {
					d = spongeFactorRow(scratch[:k1-k0], cxy, s.cz[k0:k1])
				}
				for _, f := range fields {
					if x := f.Data[f.Idx(r.I0+di, r.J0+dj, k0):][:len(d)]; len(x) < 8 {
						scaleRow(x, d) // inlined: the bottom zone is rows of a few cells
					} else {
						scaleRowAt(x, d)
					}
				}
			}
		}
	}
}

// spongeFactorRow fills d with float32(cxy*cz[k]), the factor formed
// exactly as Factor forms it, and returns it; cz has d's length.
func spongeFactorRow(d []float32, cxy float64, cz []float64) []float32 {
	cz = cz[:len(d)]
	for k := range d {
		d[k] = float32(cxy * cz[k])
	}
	return d
}

// scaleRowAt multiplies one z-row of a field by a factor row of the same
// length.
func scaleRowAt(x, f []float32) {
	m := scaleRowVec(x, f)
	if m == len(x) {
		return
	}
	scaleRow(x[m:], f[m:])
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
	n := r.K1 - r.K0
	gp, gs := a.GP.Data, a.GS.Data
	xx, yy, zz := wf.XX.Data, wf.YY.Data, wf.ZZ.Data
	xy, xz, yz := wf.XY.Data, wf.XZ.Data, wf.YZ.Data
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			// the factors at their own index: they may be stored at a lower
			// rank than the stresses (grid.NewProfile)
			p := wf.XX.Idx(i, j, r.K0)
			attenuationRowAt(gp[a.GP.Idx(i, j, r.K0):][:n], gs[a.GS.Idx(i, j, r.K0):],
				xx[p:], yy[p:], zz[p:], xy[p:], xz[p:], yz[p:])
		}
	}
}

// attenuationRowAt damps one z-row of the six stresses.
func attenuationRowAt(gp, gs, xx, yy, zz, xy, xz, yz []float32) {
	m := attenuationRowVec(gp, gs, xx, yy, zz, xy, xz, yz)
	if m == len(gp) {
		return
	}
	attenuationRow(gp[m:], gs[m:], xx[m:], yy[m:], zz[m:], xy[m:], xz[m:], yz[m:])
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
