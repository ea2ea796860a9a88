package fd

import (
	"math"

	"swquake/internal/grid"
)

// SLS implements anelastic attenuation with memory variables — the
// standard-linear-solid (single relaxation mechanism) viscoelastic
// formulation that production AWP-ODC uses, as opposed to the cheap
// exponential operator in attenuation.go. Each stress component carries a
// memory variable r_ij evolving as
//
//	dr/dt = -(1/tau_sigma) [ r + phi * dsigma_elastic/dt ]
//
// and the stress is corrected by the relaxed average of r. The defect
// fraction phi and the relaxation time tau_sigma are chosen so the quality
// factor at the reference frequency f0 is Q:
//
//	tau_sigma = 1/(2 pi f0),   phi ≈ 2/Q   (Q >> 1)
//
// Unlike the exponential operator, the SLS produces the physical
// frequency-dependent Q of a relaxation mechanism (weakest damping far
// from f0). It costs seven extra 3D arrays, the six memory variables and
// phi — the production physics' share of the paper's "over 35 instead of
// just 28 arrays". The stresses the update takes its increment against are
// not an array: a StressSnapshot holds them for the region at hand.
type SLS struct {
	// R holds the six memory variables, ordered like StressFields.
	R [6]*grid.Field
	// Phi is the per-cell modulus defect fraction (≈ 2/Q).
	Phi *grid.Field
	// TauSigma is the relaxation time (s).
	TauSigma float64
}

// NewSLS builds the memory-variable state for reference frequency f0 and
// per-cell quality factors from qm (the Qs value is used for all
// components; a per-component split costs little and adds nothing at this
// fidelity). Its seven fields are made at once (grid.NewFields), and phi is
// filled in slabs of i-planes on grid.Workers goroutines.
func NewSLS(d grid.Dims, qm QModel, f0 float64) *SLS {
	f := grid.NewFields(7, d, Halo)
	s := &SLS{R: [6]*grid.Field(f[:6]), Phi: f[6], TauSigma: 1 / (2 * math.Pi * f0)}
	grid.Slabs(0, d.Nx, grid.Workers(d.Points()), func(_, i0, i1 int) {
		for i := i0; i < i1; i++ {
			for j := 0; j < d.Ny; j++ {
				row := s.Phi.Row(i, j)
				for k := range row {
					_, qs := qm.Q(i, j, k)
					phi := 0.0
					if qs > 0 {
						phi = 2 / qs
					}
					row[k] = float32(phi)
				}
			}
		}
	})
	return s
}

// StressSnapshot is one region's six stresses as they stood before the
// stress kernel ran there, packed z-row by z-row: what AfterRegion takes the
// elastic increment against. A stress-chain worker keeps one and retakes it
// for every region it runs the chain on; it grows to the largest of them.
type StressSnapshot struct {
	reg grid.Region
	s   [6][]float32
}

// Take copies reg's six stresses out of wf; call immediately before the
// stress kernel runs on reg.
func (p *StressSnapshot) Take(wf *Wavefield, reg grid.Region) {
	p.reg = reg
	for c, f := range wf.StressFields() {
		p.s[c] = p.s[c][:0]
		for i := reg.I0; i < reg.I1; i++ {
			for j := reg.J0; j < reg.J1; j++ {
				p.s[c] = append(p.s[c], f.Row(i, j)[reg.K0:reg.K1]...)
			}
		}
	}
}
