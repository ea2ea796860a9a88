package grid

// Face identifies one of the four lateral halo faces exchanged between
// neighbouring MPI ranks in the paper's 2D (x,y) process decomposition.
// The z direction is never decomposed across processes (§6.3 step 1).
type Face int

const (
	FaceXMinus Face = iota
	FaceXPlus
	FaceYMinus
	FaceYPlus
)

func (f Face) String() string {
	switch f {
	case FaceXMinus:
		return "x-"
	case FaceXPlus:
		return "x+"
	case FaceYMinus:
		return "y-"
	case FaceYPlus:
		return "y+"
	}
	return "?"
}

// Opposite returns the face that a neighbour sees for f.
func (f Face) Opposite() Face {
	switch f {
	case FaceXMinus:
		return FaceXPlus
	case FaceXPlus:
		return FaceXMinus
	case FaceYMinus:
		return FaceYPlus
	default:
		return FaceYMinus
	}
}

// HaloLen returns the number of float32 values in one face halo of width H
// (including corner columns along the orthogonal horizontal axis, and the
// full z extent with halos so a single exchange round suffices).
func (f *Field) HaloLen(face Face) int {
	tz := f.Nz + 2*f.H
	switch face {
	case FaceXMinus, FaceXPlus:
		return f.H * (f.Ny + 2*f.H) * tz
	default:
		return f.H * (f.Nx + 2*f.H) * tz
	}
}

// PackHalo copies the H interior layers adjacent to the given face into buf,
// which must have length HaloLen(face). These are the layers a neighbouring
// rank needs as its ghost data.
func (f *Field) PackHalo(face Face, buf []float32) {
	f.full()
	n := 0
	switch face {
	case FaceXMinus:
		n = f.packXLayers(0, buf)
	case FaceXPlus:
		n = f.packXLayers(f.Nx-f.H, buf)
	case FaceYMinus:
		n = f.packYLayers(0, buf)
	case FaceYPlus:
		n = f.packYLayers(f.Ny-f.H, buf)
	}
	if n != len(buf) {
		panic("grid: PackHalo buffer length mismatch")
	}
}

// UnpackHalo copies buf into the H ghost layers outside the given face.
func (f *Field) UnpackHalo(face Face, buf []float32) {
	f.full()
	f.writable()
	n := 0
	switch face {
	case FaceXMinus:
		n = f.unpackXLayers(-f.H, buf)
	case FaceXPlus:
		n = f.unpackXLayers(f.Nx, buf)
	case FaceYMinus:
		n = f.unpackYLayers(-f.H, buf)
	case FaceYPlus:
		n = f.unpackYLayers(f.Ny, buf)
	}
	if n != len(buf) {
		panic("grid: UnpackHalo buffer length mismatch")
	}
}

func (f *Field) packXLayers(i0 int, buf []float32) int {
	n := 0
	tz := f.Nz + 2*f.H
	for di := 0; di < f.H; di++ {
		for j := -f.H; j < f.Ny+f.H; j++ {
			base := f.Idx(i0+di, j, -f.H)
			n += copy(buf[n:], f.Data[base:base+tz])
		}
	}
	return n
}

func (f *Field) unpackXLayers(i0 int, buf []float32) int {
	n := 0
	tz := f.Nz + 2*f.H
	for di := 0; di < f.H; di++ {
		for j := -f.H; j < f.Ny+f.H; j++ {
			base := f.Idx(i0+di, j, -f.H)
			n += copy(f.Data[base:base+tz], buf[n:n+tz])
		}
	}
	return n
}

func (f *Field) packYLayers(j0 int, buf []float32) int {
	n := 0
	tz := f.Nz + 2*f.H
	for i := -f.H; i < f.Nx+f.H; i++ {
		for dj := 0; dj < f.H; dj++ {
			base := f.Idx(i, j0+dj, -f.H)
			n += copy(buf[n:], f.Data[base:base+tz])
		}
	}
	return n
}

func (f *Field) unpackYLayers(j0 int, buf []float32) int {
	n := 0
	tz := f.Nz + 2*f.H
	for i := -f.H; i < f.Nx+f.H; i++ {
		for dj := 0; dj < f.H; dj++ {
			base := f.Idx(i, j0+dj, -f.H)
			n += copy(f.Data[base:base+tz], buf[n:n+tz])
		}
	}
	return n
}
