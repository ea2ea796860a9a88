package checkpoint

import (
	"fmt"

	"swquake/internal/fd"
	"swquake/internal/grid"
)

// Block gather/scatter for checkpointing (the paper's gather-to-I/O-process
// restart path, Fig. 3), one path for every decomposition: each block but
// block 0 flattens its interior with PackInterior, and block 0 builds the
// one global dump in the checkpoint lane's snapshot — its own interior with
// CopyInterior, straight from its wavefield, the others' with
// UnpackInterior. The whole-domain block of a serial run is block 0 of a
// 1x1 grid, so its dump holds the same bytes as any other decomposition's:
// interiors, and ghost planes that stay zero. On restart, ExtractBlock
// carves a block — interior plus ghost layers — back out of the loaded
// global wavefield. In-domain ghost values come from the neighbouring
// blocks' interiors, which is exactly what the halo exchange had left in the
// ghost layers when the dump was taken (the stress exchange is the last
// stage of a pipeline step), so a resumed run is bit-identical to an
// uninterrupted one.

// PackInterior flattens every field's interior (no ghost layers) into one
// buffer, in Wavefield.AllFields order — a block's payload in a checkpoint
// gather.
func PackInterior(wf *fd.Wavefield) []float32 {
	d := wf.D
	fields := wf.AllFields()
	buf := make([]float32, 0, len(fields)*int(d.Points()))
	for _, f := range fields {
		for i := 0; i < d.Nx; i++ {
			for j := 0; j < d.Ny; j++ {
				buf = append(buf, f.Row(i, j)...)
			}
		}
	}
	return buf
}

// UnpackInterior writes a PackInterior buffer into the global wavefield at
// block offset (i0, j0). The block's depth must equal the global depth (the
// z axis is never decomposed, §6.3).
func UnpackInterior(global *fd.Wavefield, d grid.Dims, i0, j0 int, buf []float32) error {
	if want := len(global.AllFields()) * int(d.Points()); len(buf) != want {
		return fmt.Errorf("checkpoint: block buffer holds %d values, want %d", len(buf), want)
	}
	return placeBlock(global, d, i0, j0, func(int, int, int) []float32 {
		row := buf[:d.Nz]
		buf = buf[d.Nz:]
		return row
	})
}

// CopyInterior writes the interior of block wf into the global wavefield at
// block offset (i0, j0), as UnpackInterior does its packed buffer.
func CopyInterior(global, wf *fd.Wavefield, i0, j0 int) error {
	fields := wf.AllFields()
	return placeBlock(global, wf.D, i0, j0, func(fi, i, j int) []float32 { return fields[fi].Row(i, j) })
}

// placeBlock copies the z-rows row(field, i, j) of a block of dims d into the
// global wavefield's interior at block offset (i0, j0), field by field and
// in (i, j) order.
func placeBlock(global *fd.Wavefield, d grid.Dims, i0, j0 int, row func(fi, i, j int) []float32) error {
	if d.Nz != global.D.Nz || i0 < 0 || j0 < 0 || i0+d.Nx > global.D.Nx || j0+d.Ny > global.D.Ny {
		return fmt.Errorf("checkpoint: block %v at (%d,%d) outside global %v", d, i0, j0, global.D)
	}
	for fi, f := range global.AllFields() {
		for i := 0; i < d.Nx; i++ {
			for j := 0; j < d.Ny; j++ {
				copy(f.Row(i0+i, j0+j), row(fi, i, j))
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
