package checkpoint

import "swquake/internal/fd"

// SaveAux is save through scratch of its own: a dump with an aux section,
// for the tests — the external ones included, whose benchmark dumps a
// wavefield the engine stepped (and the engine imports this package).
func SaveAux(path string, step int, simTime float64, wf *fd.Wavefield, aux []byte) (Info, error) {
	return save(path, step, simTime, wf, aux, &scratch{})
}
