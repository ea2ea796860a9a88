// Package output writes simulation products to portable formats: station
// seismograms as CSV, surface fields (PGV, intensity, snapshots) as PGM
// images and ASCII art, all with stdlib only.
package output

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"swquake/internal/atomicio"
	"swquake/internal/seismo"
)

// WriteTraceCSV writes a three-component seismogram as time,u,v,w rows.
func WriteTraceCSV(w io.Writer, t *seismo.Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# station %s (i=%d j=%d k=%d), dt=%g s\n",
		t.Station.Name, t.Station.I, t.Station.J, t.Station.K, t.Dt); err != nil {
		return err
	}
	fmt.Fprintln(bw, "time,u,v,w")
	for i := range t.U {
		fmt.Fprintf(bw, "%.6f,%.6e,%.6e,%.6e\n", float64(i)*t.Dt, t.U[i], t.V[i], t.W[i])
	}
	return bw.Flush()
}

// SaveTraceCSV writes the trace to a file atomically: a crash mid-write
// leaves either the previous file or nothing, never a torn CSV.
func SaveTraceCSV(path string, t *seismo.Trace) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return WriteTraceCSV(w, t)
	})
}

// WritePGM writes a 2D field as an 8-bit PGM image, linearly mapping
// [lo, hi] to [0, 255]. Rows are the first index.
func WritePGM(w io.Writer, field [][]float64, lo, hi float64) error {
	if len(field) == 0 || len(field[0]) == 0 {
		return fmt.Errorf("output: empty field")
	}
	bw := bufio.NewWriter(w)
	h, wd := len(field), len(field[0])
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", wd, h)
	span := hi - lo
	for _, row := range field {
		if len(row) != wd {
			return fmt.Errorf("output: ragged field")
		}
		for _, v := range row {
			p := 0.0
			if span > 0 {
				p = (v - lo) / span
			}
			if p < 0 {
				p = 0
			}
			if p > 1 {
				p = 1
			}
			if err := bw.WriteByte(byte(math.Round(p * 255))); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SavePGM writes the field to a .pgm file atomically.
func SavePGM(path string, field [][]float64, lo, hi float64) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return WritePGM(w, field, lo, hi)
	})
}

// PGVGrid converts a PGVField into a [][]float64 for image output.
func PGVGrid(p *seismo.PGVField) [][]float64 {
	out := make([][]float64, p.Nx)
	for i := range out {
		row := make([]float64, p.Ny)
		for j := range row {
			row[j] = p.At(i, j)
		}
		out[i] = row
	}
	return out
}

// IntensityGrid converts a PGVField into Chinese intensities.
func IntensityGrid(p *seismo.PGVField) [][]float64 {
	out := PGVGrid(p)
	for _, row := range out {
		for j, v := range row {
			row[j] = seismo.Intensity(v)
		}
	}
	return out
}

// ASCIIMap renders a 2D field as character art with the given shade ramp,
// downsampling to at most maxCols columns.
func ASCIIMap(w io.Writer, field [][]float64, maxCols int) {
	if len(field) == 0 {
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range field {
		for _, v := range row {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	shades := " .:-=+*#%@"
	stepI := max(len(field)/maxCols, 1) * 2 // rows are taller than chars
	stepJ := max(len(field[0])/maxCols, 1)
	for i := 0; i < len(field); i += stepI {
		for j := 0; j < len(field[i]); j += stepJ {
			p := 0.0
			if hi > lo {
				p = (field[i][j] - lo) / (hi - lo)
			}
			fmt.Fprintf(w, "%c", shades[int(p*float64(len(shades)-1))])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "range: [%.4g, %.4g]\n", lo, hi)
}

// WriteSpectrumCSV writes an amplitude spectrum as frequency,amplitude rows.
func WriteSpectrumCSV(w io.Writer, s seismo.Spectrum) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "freq_hz,amplitude")
	for i, a := range s.Amp {
		fmt.Fprintf(bw, "%.6f,%.6e\n", float64(i)*s.Df, a)
	}
	return bw.Flush()
}

// SaveSpectrumCSV writes the spectrum to a file atomically.
func SaveSpectrumCSV(path string, s seismo.Spectrum) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return WriteSpectrumCSV(w, s)
	})
}
