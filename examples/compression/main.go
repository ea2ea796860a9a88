// Compression: the paper's on-the-fly compression workflow (§6.5) through
// the public API — run the same scenario with 16-bit compressed wavefield
// storage (Fig. 5b-c; the run calibrates its codecs on a 2x-coarse run of
// itself first, Fig. 5a), validate the result against the uncompressed
// reference (Fig. 6), and report the storage both runs allocate.
package main

import (
	"fmt"
	"log"

	"swquake"
)

func main() {
	sc := swquake.TangshanScenario{
		Dims: swquake.Dims{Nx: 48, Ny: 46, Nz: 20}, Dx: 650, Steps: 150,
	}
	cfg, err := sc.Config()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("reference run (float32 storage)...")
	ref, err := swquake.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	refRes, err := ref.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("compressed run (16-bit storage, method 3: range-normalized, calibrated on a 2x-coarse run)...")
	ccfg := cfg
	ccfg.Compression = swquake.CompressionNormalized
	csim, err := swquake.New(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	compRes, err := csim.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %14s %14s %12s\n", "station", "peak ref", "peak compr", "RMS misfit")
	for _, name := range []string{"Ninghe", "Cangzhou"} {
		a := refRes.Recorder.Trace(name)
		b := compRes.Recorder.Trace(name)
		mis, err := a.RMSMisfit(b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %14.5g %14.5g %11.1f%%\n",
			name, a.PeakVelocity(), b.PeakVelocity(), 100*mis)
	}
	fmt.Println("(paper Fig. 6: onsets overlap; coda degrades slightly, more at the distant station)")

	// both runs allocate every field over the padded block; the compressed
	// run keeps the float32 wavefield beside its 16-bit copies
	padded := len(ref.WF.U.Data)
	plain, comp := bytesPerPoint(cfg), bytesPerPoint(ccfg)
	fmt.Printf("storage: %d B per padded point float32 -> %d B compressed (%.1f MB -> %.1f MB)\n",
		plain, comp, float64(plain*padded)/(1<<20), float64(comp*padded)/(1<<20))
	fmt.Println("(the halved footprint of §6.5 is modeled, EXPERIMENTS.md §6.5; it is executed once the" +
		" wavefield is stored in 16 bits alone, ROADMAP item 3)")
}

// bytesPerPoint is the storage a run of cfg allocates per padded grid point.
func bytesPerPoint(cfg swquake.Config) int {
	st := cfg.Storage()
	return 4*st.FullFields32 + 2*st.FullFields16
}
