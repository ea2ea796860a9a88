// Compression: the paper's on-the-fly compression workflow (§6.5) through
// the public API — run the same scenario with 16-bit compressed wavefield
// storage (Fig. 5b-c; the run calibrates its codecs on a 2x-coarse run of
// itself first, Fig. 5a), validate the result against the uncompressed
// reference (Fig. 6), and report the storage each run allocates.
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

	// both runs allocate the same float32 fields over the padded block: the
	// compressed one round trips them through its codecs in place
	st := cfg.Storage()
	padded := len(ref.WF.U.Data)
	fmt.Printf("storage: %d B per padded point in both runs (%.1f MB)\n",
		4*st.FullFields32, float64(4*st.FullFields32*padded)/(1<<20))
	fmt.Println("(the halved footprint of §6.5 is modeled, EXPERIMENTS.md §6.5; it is executed once the" +
		" wavefield is stored in 16 bits alone, ROADMAP item 3)")
}
