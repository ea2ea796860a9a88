package model

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// GridModel file format. The paper's workflow ingests a community velocity
// model file and interpolates it onto the simulation mesh (the "3D model
// interpolator" of Fig. 3); this is the on-disk form:
//
//	magic "SWVM", version uint32
//	nx, ny, nz uint32
//	dx, dy, dz float64
//	vp[nx*ny*nz] float32, vs[...], rho[...]
//
// little-endian throughout, z fastest.

const (
	modelMagic   = 0x5357564d // "SWVM"
	modelVersion = 1
)

// Write serializes the model.
func (g *GridModel) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := make([]byte, 0, 44)
	hdr = binary.LittleEndian.AppendUint32(hdr, modelMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, modelVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(g.NX))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(g.NY))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(g.NZ))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(g.DX))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(g.DY))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(g.DZ))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	for _, arr := range [][]float64{g.Vp, g.Vs, g.Rho} {
		for _, v := range arr {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(float32(v)))
			if _, err := bw.Write(b[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadGridModel deserializes a model written by Write.
func ReadGridModel(r io.Reader) (*GridModel, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 44)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("model: short header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != modelMagic {
		return nil, fmt.Errorf("model: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != modelVersion {
		return nil, fmt.Errorf("model: unsupported version %d", v)
	}
	g := &GridModel{
		NX: int(binary.LittleEndian.Uint32(hdr[8:])),
		NY: int(binary.LittleEndian.Uint32(hdr[12:])),
		NZ: int(binary.LittleEndian.Uint32(hdr[16:])),
		DX: math.Float64frombits(binary.LittleEndian.Uint64(hdr[20:])),
		DY: math.Float64frombits(binary.LittleEndian.Uint64(hdr[28:])),
		DZ: math.Float64frombits(binary.LittleEndian.Uint64(hdr[36:])),
	}
	validSpacing := func(d float64) bool { return d > 0 && !math.IsInf(d, 1) }
	if g.NX <= 0 || g.NY <= 0 || g.NZ <= 0 || !validSpacing(g.DX) || !validSpacing(g.DY) || !validSpacing(g.DZ) {
		return nil, fmt.Errorf("model: invalid header %+v", g)
	}
	// in float64, because the product of three counts can overflow an int
	if float64(g.NX)*float64(g.NY)*float64(g.NZ) > 1<<28 {
		return nil, fmt.Errorf("model: implausible size %dx%dx%d samples", g.NX, g.NY, g.NZ)
	}
	n := g.NX * g.NY * g.NZ
	read := func() ([]float64, error) {
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("model: truncated data: %w", err)
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:])))
		}
		return out, nil
	}
	var err error
	if g.Vp, err = read(); err != nil {
		return nil, err
	}
	if g.Vs, err = read(); err != nil {
		return nil, err
	}
	if g.Rho, err = read(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m := Material{Vp: g.Vp[i], Vs: g.Vs[i], Rho: g.Rho[i]}
		if !m.Valid() {
			return nil, fmt.Errorf("model: invalid material at sample %d: %v", i, m)
		}
	}
	return g, nil
}

// SaveGridModel writes the model to a file.
func SaveGridModel(path string, g *GridModel) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.Write(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadGridModel reads a model file.
func LoadGridModel(path string) (*GridModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadGridModel(f)
}
