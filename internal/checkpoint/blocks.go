package checkpoint

import (
	"fmt"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

// Block gather/scatter for parallel checkpointing (the paper's gather-to-
// I/O-process restart path, Fig. 3): each rank flattens its interior with
// PackInterior and the root assembles the global wavefield with
// UnpackInterior before writing one dump. On restart, ExtractBlock carves a
// rank's block — interior plus ghost layers — back out of the loaded global
// wavefield. In-domain ghost values come from the neighbouring blocks'
// interiors, which is exactly what the halo exchange had left in the ghost
// layers when the dump was taken (the stress exchange is the last stage of
// a pipeline step), so a resumed parallel run is bit-identical to an
// uninterrupted one.

// PackInterior flattens every field's interior (no ghost layers) into one
// buffer, in Wavefield.AllFields order — the per-rank payload of a parallel
// checkpoint gather.
func PackInterior(wf *fd.Wavefield) []float32 {
	d := wf.D
	fields := wf.AllFields()
	buf := make([]float32, 0, len(fields)*int(d.Points()))
	for _, f := range fields {
		for i := 0; i < d.Nx; i++ {
			for j := 0; j < d.Ny; j++ {
				base := f.Idx(i, j, 0)
				buf = append(buf, f.Data[base:base+d.Nz]...)
			}
		}
	}
	return buf
}

// UnpackInterior writes a PackInterior buffer into the global wavefield at
// block offset (i0, j0). The block's depth must equal the global depth (the
// z axis is never decomposed, §6.3).
func UnpackInterior(global *fd.Wavefield, d grid.Dims, i0, j0 int, buf []float32) error {
	fields := global.AllFields()
	if want := len(fields) * int(d.Points()); len(buf) != want {
		return fmt.Errorf("checkpoint: block buffer holds %d values, want %d", len(buf), want)
	}
	if d.Nz != global.D.Nz || i0 < 0 || j0 < 0 || i0+d.Nx > global.D.Nx || j0+d.Ny > global.D.Ny {
		return fmt.Errorf("checkpoint: block %v at (%d,%d) outside global %v", d, i0, j0, global.D)
	}
	off := 0
	for _, f := range fields {
		for i := 0; i < d.Nx; i++ {
			for j := 0; j < d.Ny; j++ {
				base := f.Idx(i0+i, j0+j, 0)
				copy(f.Data[base:base+d.Nz], buf[off:off+d.Nz])
				off += d.Nz
			}
		}
	}
	return nil
}

// ExtractBlock copies the block of dims d at offset (i0, j0), including its
// ghost layers, out of a global wavefield. Ghost layers that fall inside
// the global domain receive the neighbouring interiors; those outside
// receive the global field's own (zero) boundary values. A block that is the
// whole domain is the global wavefield itself and is handed back as it is,
// so a serial restore holds one copy of the wavefield, not two.
func ExtractBlock(global *fd.Wavefield, d grid.Dims, i0, j0 int) (*fd.Wavefield, error) {
	if d.Nz != global.D.Nz || i0 < 0 || j0 < 0 || i0+d.Nx > global.D.Nx || j0+d.Ny > global.D.Ny {
		return nil, fmt.Errorf("checkpoint: block %v at (%d,%d) outside global %v", d, i0, j0, global.D)
	}
	if d == global.D {
		return global, nil
	}
	wf := fd.NewWavefield(d)
	h := fd.Halo
	gf := global.AllFields()
	for fi, lf := range wf.AllFields() {
		g := gf[fi]
		for i := -h; i < d.Nx+h; i++ {
			for j := -h; j < d.Ny+h; j++ {
				gbase := g.Idx(i0+i, j0+j, -h)
				lbase := lf.Idx(i, j, -h)
				copy(lf.Data[lbase:lbase+d.Nz+2*h], g.Data[gbase:gbase+d.Nz+2*h])
			}
		}
	}
	return wf, nil
}
