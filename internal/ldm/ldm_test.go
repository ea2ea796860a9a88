package ldm

import (
	"testing"

	"swquake/internal/sunway"
)

func TestShapeComponents(t *testing.T) {
	if DelcUnfused().Components() != 10 {
		t.Fatal("unfused delc must read 10 arrays")
	}
	if DelcFused().Components() != 10 {
		t.Fatal("fusion must not change total components")
	}
	if len(DelcFused().Groups) != 3 {
		t.Fatal("fused delc must read 3 separate arrays")
	}
}

func TestShapeValidate(t *testing.T) {
	if err := (Shape{}).Validate(); err == nil {
		t.Fatal("empty shape accepted")
	}
	if err := (Shape{Groups: []int{0}, H: 2, MinWy: 9, MinWx: 5}).Validate(); err == nil {
		t.Fatal("zero group accepted")
	}
	if err := (Shape{Groups: []int{1}, H: 2, MinWy: 3, MinWx: 5}).Validate(); err == nil {
		t.Fatal("MinWy <= 2H accepted")
	}
	if err := DelcFused().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFeasibleWzMatchesPaperEq8And9(t *testing.T) {
	// eq. 8: Wz * 9 * 5 * 10 * 4 < 64 KB -> Wz ~ 36 (paper: "around 32")
	wz := FeasibleWz(DelcUnfused(), 9, 5, sunway.LDMBytes)
	if wz < 30 || wz > 40 {
		t.Fatalf("unfused Wz = %d, paper derives ~32-36", wz)
	}
	// eq. 9: Wz * 9 * 5 * 3-groups(10 comps... paper counts 3 arrays of
	// width 1 in its simplified budget: Wz*9*5*3*4 < 64K -> ~121.
	// With the full component accounting (10 comps) we use the same
	// capacity form, so validate the paper's own arithmetic directly:
	simplified := Shape{Groups: []int{1, 1, 1}, H: 2, MinWy: 9, MinWx: 5}
	wz = FeasibleWz(simplified, 9, 5, sunway.LDMBytes)
	if wz < 100 || wz > 125 {
		t.Fatalf("paper eq. 9 Wz = %d, want ~108-121", wz)
	}
}

func TestOptimizePrefersSmallCz(t *testing.T) {
	// the paper's conclusion: Cz = 1, Cy = 64 keeps Wz (and the DMA block)
	// large
	cfg, err := Optimize(DelcFused(), 160, 512, sunway.LDMBytes)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cz != 1 || cfg.Cy != 64 {
		t.Fatalf("optimizer chose Cz=%d Cy=%d, paper derives Cz=1 Cy=64", cfg.Cz, cfg.Cy)
	}
	if cfg.Cz*cfg.Cy != sunway.CPEsPerCG {
		t.Fatal("eq. 5 violated")
	}
}

func TestOptimizeRespectsLDMCapacity(t *testing.T) {
	for _, shape := range []Shape{DelcUnfused(), DelcFused()} {
		cfg, err := Optimize(shape, 160, 512, sunway.LDMBytes)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.LDMBytesUsed > sunway.LDMBytes {
			t.Fatalf("eq. 6 violated: %d > %d", cfg.LDMBytesUsed, sunway.LDMBytes)
		}
		if cfg.Wz < 1 || cfg.Wy < shape.MinWy || cfg.LDMBytesUsed != 4*len(shape.Groups)*cfg.Wz*cfg.Wy*shape.MinWx {
			t.Fatalf("degenerate tile %+v", cfg)
		}
	}
}

func TestFusionImprovesBandwidthAndTime(t *testing.T) {
	// the paper's §6.4 headline: fusing u,v,w and the six stresses raises
	// the DMA block from ~128 B to 432+ B and roughly doubles effective
	// bandwidth.
	unfused, err := Optimize(DelcUnfused(), 160, 512, sunway.LDMBytes)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Optimize(DelcFused(), 160, 512, sunway.LDMBytes)
	if err != nil {
		t.Fatal(err)
	}
	if unfused.BlockBytesMax > 200 {
		t.Fatalf("unfused block %d B, paper says ~128 B", unfused.BlockBytesMax)
	}
	if fused.BlockBytesMax < 400 {
		t.Fatalf("fused max block %d B, paper says 432+ B", fused.BlockBytesMax)
	}
	if fused.EffBWGBs < unfused.EffBWGBs*1.3 {
		t.Fatalf("fusion bandwidth gain too small: %g vs %g GB/s", fused.EffBWGBs, unfused.EffBWGBs)
	}
	if fused.PredictedTime >= unfused.PredictedTime {
		t.Fatal("fusion must reduce predicted DMA time")
	}
}

func TestRedundantFractionSmallForBalancedConfig(t *testing.T) {
	cfg, err := Optimize(DelcFused(), 160, 512, sunway.LDMBytes)
	if err != nil {
		t.Fatal(err)
	}
	// with Cz=1 and large Wz, z-direction redundancy should be tiny; the
	// y-direction halo reload dominates but stays bounded
	if cfg.RedundantFrac > 1.0 {
		t.Fatalf("redundant fraction %g too large", cfg.RedundantFrac)
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := Optimize(Shape{}, 160, 512, sunway.LDMBytes); err == nil {
		t.Fatal("invalid shape accepted")
	}
	if _, err := Optimize(DelcFused(), 0, 512, sunway.LDMBytes); err == nil {
		t.Fatal("zero block accepted")
	}
	// a working set of 400 separate scalar arrays cannot fit a single
	// z-point tile in the LDM and must be rejected
	groups := make([]int, 400)
	for i := range groups {
		groups[i] = 1
	}
	huge := Shape{Groups: groups, H: 2, MinWy: 9, MinWx: 5}
	if _, err := Optimize(huge, 160, 512, sunway.LDMBytes); err == nil {
		t.Fatal("infeasible working set accepted")
	}
}

func TestBalancedRuleCzWzEqualsCyWy(t *testing.T) {
	// eq. 7 analysis: redundant loads are minimized when Cz*Wz == Cy*Wy.
	// Check the model's score prefers more balanced configurations when
	// bandwidth is held equal (single scalar group, block saturated).
	s := Shape{Groups: []int{64}, H: 2, MinWy: 9, MinWx: 5}
	// with a 64-wide group even Wz=8 gives 2 KB blocks (saturated bw), so
	// the score is dominated by redundancy
	cfg, err := Optimize(s, 512, 512, sunway.LDMBytes)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RedundantFrac > 2 {
		t.Fatalf("optimizer left excessive redundancy: %+v", cfg)
	}
}
