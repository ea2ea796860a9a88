package service

import (
	"testing"

	"swquake/internal/core"
	"swquake/internal/scenario"
)

func TestConfigKeyDeterministic(t *testing.T) {
	a, err := ConfigKey(tinyConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConfigKey(tinyConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical configs hash differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", a)
	}
}

func TestConfigKeyCanonicalizesDefaults(t *testing.T) {
	// one config relies on Validate to fill defaults, the other spells
	// them out — the canonical hash must not see a difference
	raw := tinyConfig(30)
	raw.Attenuation = core.AttenuationConfig{Enabled: true, Qp: 100, Qs: 50}
	filled := raw
	filled.Attenuation.F0 = 1
	a, err := ConfigKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConfigKey(filled)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("default-filled config hashes differently from raw config")
	}
}

func TestConfigKeySensitivity(t *testing.T) {
	base, err := ConfigKey(tinyConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*core.Config){
		"steps": func(c *core.Config) { c.Steps = 31 },
		"dx":    func(c *core.Config) { c.Dx = 250 },
		"nonlinear": func(c *core.Config) {
			c.Nonlinear = true
			c.Plasticity = core.PlasticityConfig{Cohesion: 5e4, FrictionAngle: 0.5}
		},
		"source":  func(c *core.Config) { c.Sources[0].I = 10 },
		"station": func(c *core.Config) { c.Stations[0].K = 1 },
		"atten":   func(c *core.Config) { c.Attenuation = core.AttenuationConfig{Enabled: true, Qs: 50, Qp: 100} },
		"restart": func(c *core.Config) { c.RestartFrom = "ckpt.swq" },
	}
	for name, mutate := range mutations {
		cfg := tinyConfig(30)
		mutate(&cfg)
		k, err := ConfigKey(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == base {
			t.Errorf("mutation %q did not change the key", name)
		}
	}
}

func TestConfigKeyIgnoresExecutionDetails(t *testing.T) {
	base, err := ConfigKey(tinyConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(30)
	cfg.Observer = func(core.StepEvent) {}
	k, err := ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k != base {
		t.Fatal("observer changed the scenario key")
	}
}

func TestConfigKeyInvalidConfig(t *testing.T) {
	if _, err := ConfigKey(core.Config{}); err == nil {
		t.Fatal("invalid config produced a key")
	}
}

func TestConfigKeyScenarioBuilds(t *testing.T) {
	// both named scenarios must produce hashable configs, and the same
	// name+overrides must collapse to the same key (the serving cache's
	// core property)
	for _, name := range scenario.Names() {
		a, err := scenario.Build(name, scenario.Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := scenario.Build(name, scenario.Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		ka, err := ConfigKey(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kb, err := ConfigKey(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ka != kb {
			t.Errorf("scenario %s is not canonically hashable", name)
		}
	}
}

// TestConfigKeyHeterogeneityCollisionGuard is the ensemble cache-collision
// guard: campaign members differ only in their stochastic-heterogeneity
// seed (or amplitude, or correlation length). If any of those fields were
// invisible to ConfigKey, the result cache would silently serve one
// member's result for every other member of the sweep.
func TestConfigKeyHeterogeneityCollisionGuard(t *testing.T) {
	key := func(o scenario.Overrides) string {
		t.Helper()
		cfg, err := scenario.Build("tangshan", o)
		if err != nil {
			t.Fatal(err)
		}
		k, err := ConfigKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	plain := key(scenario.Overrides{})
	base := key(scenario.Overrides{HetAmplitude: 0.05, Seed: 1})
	if base == plain {
		t.Fatal("heterogeneous config hashes like the unperturbed one")
	}
	variants := map[string]scenario.Overrides{
		"seed":      {HetAmplitude: 0.05, Seed: 2},
		"amplitude": {HetAmplitude: 0.06, Seed: 1},
		"corr_len":  {HetAmplitude: 0.05, Seed: 1, HetCorrLen: 2500},
	}
	seen := map[string]string{"base": base, "plain": plain}
	for name, o := range variants {
		k := key(o)
		for prev, pk := range seen {
			if k == pk {
				t.Errorf("configs differing only in %s vs %s hash identically", name, prev)
			}
		}
		seen[name] = k
	}

	// same seed sweep member resubmitted must still collapse to one key
	if again := key(scenario.Overrides{HetAmplitude: 0.05, Seed: 1}); again != base {
		t.Fatal("identical heterogeneous config is not canonically hashable")
	}
}
