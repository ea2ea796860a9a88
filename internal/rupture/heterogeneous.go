package rupture

import "fmt"

// Heterogeneous fault stress. Real faults (and the paper's Tangshan source,
// built from "observations and reasonable inference") carry asperities —
// patches of elevated stress — and barriers of reduced stress that shape
// where the rupture accelerates, slows or arrests. Patch composes such
// structure over a background Tau0 function.

// Patch is a rectangular fault region with a stress multiplier.
type Patch struct {
	I0, I1 int     // strike range [I0, I1)
	K0, K1 int     // depth range [K0, K1)
	Factor float64 // multiplies the background Tau0 (>1 asperity, <1 barrier)
}

// Contains reports whether fault cell (i, k) lies in the patch.
func (p Patch) Contains(i, k int) bool {
	return i >= p.I0 && i < p.I1 && k >= p.K0 && k < p.K1
}

// WithPatches wraps a background shear-load function with patches; when
// patches overlap, their factors multiply.
func WithPatches(base func(i, k int) float64, patches []Patch) (func(i, k int) float64, error) {
	for n, p := range patches {
		if p.I0 >= p.I1 || p.K0 >= p.K1 {
			return nil, fmt.Errorf("rupture: patch %d empty", n)
		}
		if p.Factor <= 0 {
			return nil, fmt.Errorf("rupture: patch %d non-positive factor", n)
		}
	}
	return func(i, k int) float64 {
		t := base(i, k)
		for _, p := range patches {
			if p.Contains(i, k) {
				t *= p.Factor
			}
		}
		return t
	}, nil
}
