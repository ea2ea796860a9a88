package core

// Storage describes the allocation-relevant shape of one simulator block:
// how many per-point arrays New will build for a given configuration, each
// counted at the rank it is stored at — a parameter the configuration makes
// uniform or depth-only is one z-row (grid.NewProfile), not an array. It is
// the engine-side input of the admission cost model (internal/admission),
// kept here — next to the allocations it mirrors — so the estimator cannot
// silently drift from what New actually allocates:
//
//   - fd.NewWavefield: 9 dynamic fields (u,v,w + 6 stresses)
//   - fd.NewMediumFromModel: 4 material fields (rho, lambda, mu and the
//     reciprocal 1/mu the stress kernel reads)
//   - plasticity.NewParams: none when Nonlinear — four constant rows and the
//     lithostatic z-profile; the yield-factor record is not kept
//   - fd.NewAttenuation: none for constant Q (two constant rows), 2 fields
//     (GP, GS) for Vs-scaled Q; fd.NewSLS: 7 (6 memory variables + phi; the
//     stress snapshot is each chain worker's scratch of one chain region)
//   - compressed storage: none — the run's codecs and each walk worker's
//     4 KB of codes; the float32 wavefield is the one resident copy
//   - fd.NewSponge: three 1-D profiles — not counted
//   - seismo.NewPGVField: one Nx×Ny float64 surface map
type Storage struct {
	// FullFields32 counts float32 fields allocated over the full block
	// including halo padding ((N+2H)^3 points each, H = fd.Halo).
	FullFields32 int
	// SurfacePGV marks the Nx×Ny float64 peak-ground-velocity map.
	SurfacePGV bool
}

// Storage reports the per-point storage the engine allocates for one block
// of this configuration. It does not validate; counts reflect the
// configuration as given (call Validate first for defaults).
func (c Config) Storage() Storage {
	st := Storage{FullFields32: 9 + 4} // wavefield + medium
	if a := c.Attenuation; a.Enabled {
		switch {
		case a.UseSLS:
			st.FullFields32 += 7
		case a.VsScaled:
			st.FullFields32 += 2
		}
	}
	st.SurfacePGV = c.RecordPGV
	return st
}
