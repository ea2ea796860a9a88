package ensemble

import (
	"os"
	"testing"

	"swquake/internal/service"
)

// FuzzLoadMemberField: a member field file is read back at boot from a
// directory a crash may have left in any state; whatever it holds, load
// either errors or returns a field whose positive shape matches its values.
func FuzzLoadMemberField(f *testing.F) {
	agg := newAggregator(f.TempDir(), 3, 2, nil, nil)
	if err := agg.persist(0, &service.SurfaceField{Nx: 3, Ny: 2, Values: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 1e-300}}); err != nil {
		f.Fatal(err)
	}
	persisted, err := os.ReadFile(agg.memberPath(0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(persisted)
	f.Add(persisted[:len(persisted)/2])
	for _, seed := range []string{
		``, `null`, `{}`, `[]`, `{"nx":2,"ny":2,"values":[1,2,3]}`, `{"nx":-1,"ny":-4,"values":[1,2,3,4]}`,
		`{"nx":4294967296,"ny":4294967296,"values":[]}`, `{"nx":"2","ny":1,"values":[1,2]}`, `{"nx":1,"ny":1,"values":[1e999]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := newAggregator(t.TempDir(), 3, 2, nil, nil)
		if err := os.WriteFile(a.memberPath(0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		mf, err := a.load(0)
		if err == nil && (mf.Nx <= 0 || mf.Ny <= 0 || len(mf.Values)/mf.Nx != mf.Ny || len(mf.Values)%mf.Nx != 0) {
			t.Fatalf("loaded a %dx%d field with %d values from %q", mf.Nx, mf.Ny, len(mf.Values), data)
		}
	})
}
