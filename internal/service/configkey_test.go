package service

import (
	"math"
	"reflect"
	"slices"
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

// executionOnly are the core.Config fields that change how a job runs but
// not the result it returns, and so stay out of the cache key.
var executionOnly = []string{"Checkpoint", "Observer", "Tiles", "Overlap", "StepDeadline", "MaxFaultRetries", "OnFault"}

// TestConfigKeyCoversEveryConfigField: every field of core.Config is in
// keyPayload or on the execution-only list, and not both; and changing any
// value a keyed field reaches — nested structs, a slice's first element, an
// interface's dynamic value — changes the key. A field added to the Config
// fails here until it is keyed or listed.
func TestConfigKeyCoversEveryConfigField(t *testing.T) {
	keyed := map[string]bool{}
	for i, kp := 0, reflect.TypeOf(keyPayload{}); i < kp.NumField(); i++ {
		keyed[kp.Field(i).Name] = true
	}
	cfg := tinyConfig(30)
	cfg.Dt, cfg.Nonlinear, cfg.SpongeWidth, cfg.RestartFrom = 0.01, true, 2, "ckpt.swq"
	cfg.Plasticity = core.PlasticityConfig{Cohesion: 5e4, FrictionAngle: 0.5, FluidPressure: 1e3, Lithostatic: true, Tv: 0.1}
	cfg.Attenuation = core.AttenuationConfig{Enabled: true, UseSLS: true, Qp: 100, Qs: 50, Factor: 0.05}
	if err := cfg.Validate(); err != nil { // every default filled, so a change is not undone
		t.Fatal(err)
	}
	base, err := ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// changed reports whether the config is still valid; a valid one must
	// key differently from the base
	changed := func(path string) bool {
		k, err := ConfigKey(cfg)
		if err == nil && k == base {
			t.Errorf("changing %s leaves the key as it was: it is not in keyPayload", path)
		}
		return err == nil
	}
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		exec := slices.Contains(executionOnly, f.Name)
		if keyed[f.Name] == exec {
			t.Errorf("core.Config.%s: in keyPayload %v, execution-only %v; want exactly one", f.Name, keyed[f.Name], exec)
		}
		if !exec {
			eachChange(t, v.Field(i), f.Name, changed)
		}
	}
}

// eachChange changes every scalar v reaches, one at a time, calls changed
// with its path, and undoes it; changed reports whether the config stayed
// valid, and an invalid change is tried the other way. Slices are walked at
// element 0, pointers and interfaces through their value, each copied first
// so no change reaches a value another config shares.
func eachChange(t *testing.T, v reflect.Value, path string, changed func(string) bool) {
	t.Helper()
	try := func(alts ...func(reflect.Value)) {
		old := reflect.ValueOf(v.Interface())
		defer v.Set(old)
		for _, alt := range alts {
			alt(v)
			if changed(path) {
				return
			}
			v.Set(old)
		}
		t.Errorf("%s: no change of it makes a valid config", path)
	}
	switch v.Kind() {
	case reflect.Bool:
		try(func(v reflect.Value) { v.SetBool(!v.Bool()) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		try(func(v reflect.Value) { v.SetInt(v.Int() + 1) }, func(v reflect.Value) { v.SetInt(v.Int() - 1) })
	case reflect.Float32, reflect.Float64:
		d := max(math.Abs(v.Float())*1e-3, 1e-6)
		try(func(v reflect.Value) { v.SetFloat(v.Float() + d) }, func(v reflect.Value) { v.SetFloat(v.Float() - d) })
	case reflect.String:
		try(func(v reflect.Value) { v.SetString(v.String() + "x") })
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				eachChange(t, v.Field(i), path+"."+f.Name, changed)
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("%s is empty in the base config: give it an element", path)
			return
		}
		old, c := reflect.ValueOf(v.Interface()), reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(c, v)
		v.Set(c)
		eachChange(t, c.Index(0), path+"[0]", changed)
		v.Set(old)
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			t.Errorf("%s is nil in the base config: give it a value", path)
			return
		}
		old, c := reflect.ValueOf(v.Interface()), reflect.New(v.Elem().Type())
		c.Elem().Set(v.Elem())
		if v.Kind() == reflect.Pointer {
			v.Set(c)
			eachChange(t, c.Elem(), path, changed)
		} else { // an interface holds a copy: put the changed one back before each check
			eachChange(t, c.Elem(), path, func(p string) bool {
				v.Set(c.Elem())
				defer v.Set(old)
				return changed(p)
			})
		}
		v.Set(old)
	default:
		t.Errorf("%s: a %s cannot be changed by this test; teach eachChange", path, v.Kind())
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
