// Restart: the checkpoint/restart workflow of the paper's framework
// (Fig. 3's "Restart Controller" with LZ4 compression, §6.2). A run writes
// periodic compressed checkpoints (the controller snapshots the wavefield
// and writes it beside the following steps, the way the paper's forwarding
// pipeline keeps dumps off the solver's path), is then "killed", and a fresh
// simulator resumes from the latest dump — the resumed run finishes
// bit-identically to an uninterrupted one.
package main

import (
	"fmt"
	"log"
	"os"

	"swquake"
	"swquake/internal/checkpoint"
	"swquake/internal/core"
)

func main() {
	dir, err := os.MkdirTemp("", "swquake-restart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := swquake.QuickstartConfig()
	cfg.Steps = 80

	// reference: uninterrupted run
	ref, err := swquake.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	refRes, err := ref.Run()
	if err != nil {
		log.Fatal(err)
	}

	// first leg: run half way with a checkpoint every 20 steps
	firstLeg := cfg
	firstLeg.Steps = 40
	ctl := &checkpoint.Controller{Dir: dir, Interval: 20, Keep: 2}
	sim1, err := core.New(firstLeg)
	if err != nil {
		log.Fatal(err)
	}
	for n := 0; n < firstLeg.Steps; n++ {
		sim1.Step()
		if _, err := ctl.MaybeSave(sim1.StepCount(), sim1.Time(), sim1.WF, nil); err != nil {
			log.Fatal(err)
		}
	}
	// Close drains the write lane: the dumps are on disk when it returns
	infos, err := ctl.Close()
	if err != nil {
		log.Fatal(err)
	}
	for _, info := range infos {
		fmt.Printf("checkpoint %s: %.1f KB raw -> %.1f KB (LZ4 %.1fx) in %.1f ms\n",
			info.Path, float64(info.RawBytes)/1024, float64(info.CompressedBytes)/1024,
			info.CompressionRatio, 1e3*info.WriteSeconds)
	}
	fmt.Println("simulated crash after step 40; restarting from the latest checkpoint...")

	// second leg: restore and finish
	sim2, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim2.Restore(ctl.Latest()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored at step %d (t = %.3f s)\n", sim2.StepCount(), sim2.Time())
	for sim2.StepCount() < cfg.Steps {
		sim2.Step()
	}

	// verify: final wavefields agree exactly
	identical := true
	for i, f := range refRes.Sim.WF.AllFields() {
		if !f.InteriorEqual(sim2.WF.AllFields()[i], 0) {
			identical = false
			_ = i
			break
		}
	}
	fmt.Printf("resumed run matches the uninterrupted run bit-exactly: %v\n", identical)
}
