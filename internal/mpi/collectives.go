package mpi

import "fmt"

// Additional collectives used by the I/O and gather paths. All ranks must
// call the same collective in the same order (standard MPI discipline).

// gatherTag lives in a reserved tag space far above the halo exchange tags.
const gatherTag = 1<<30 + 1

// Gather collects each rank's data at root, indexed by rank. Non-root
// ranks receive nil. It hands the parts over instead of copying them (Send):
// every rank gives up its data with the call — it must not touch it again —
// and root's result holds the very slices the ranks passed in, its own
// included.
func (r *Rank) Gather(root int, data []float32) [][]float32 {
	if root < 0 || root >= r.w.size {
		panic(fmt.Sprintf("mpi: gather root %d invalid", root))
	}
	if r.id != root {
		r.Send(root, gatherTag, data)
		return nil
	}
	out := make([][]float32, r.w.size)
	out[root] = data
	for src := 0; src < r.w.size; src++ {
		if src != root {
			out[src] = r.Recv(src, gatherTag)
		}
	}
	return out
}
