package ensemble

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"swquake/internal/atomicio"
	"swquake/internal/seismo"
	"swquake/internal/service"
)

// aggregator folds member surface-PGV fields into the campaign's online
// statistics. The fold order is pinned to the member index via
// seismo.OrderedFold, so whatever order the scheduler's members complete
// in, the Welford sequence — and therefore every bit of the aggregate —
// is identical. Folded fields are also retained (and, in durable mode,
// persisted one file per member) so percentile maps are exact and a
// restarted campaign re-folds the same bits.
type aggregator struct {
	mu          sync.Mutex
	dir         string // per-campaign state directory; "" = memory only
	thresholds  []float64
	percentiles []float64

	stats  *seismo.FieldStats
	fold   *seismo.OrderedFold
	fields map[int][]float64 // folded member fields, by member index
}

// newAggregator builds the aggregate of nx x ny member fields.
func newAggregator(dir string, nx, ny int, thresholds, percentiles []float64) *aggregator {
	stats := seismo.NewFieldStats(nx, ny, thresholds)
	return &aggregator{
		dir:         dir,
		thresholds:  thresholds,
		percentiles: percentiles,
		stats:       stats,
		fold:        seismo.NewOrderedFold(stats),
		fields:      make(map[int][]float64),
	}
}

func (a *aggregator) memberPath(idx int) string {
	return filepath.Join(a.dir, fmt.Sprintf("member-%06d.json", idx))
}

// persist writes a member field to the campaign directory as JSON, which
// round-trips float64 exactly, so a re-folded field is bit-identical to the
// one the first life folded (write-ahead of the member_done journal event,
// so a journaled member always has its field on disk).
func (a *aggregator) persist(idx int, f *service.SurfaceField) error {
	if a.dir == "" {
		return nil
	}
	if err := os.MkdirAll(a.dir, 0o755); err != nil {
		return err
	}
	return atomicio.WriteFile(a.memberPath(idx), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(f)
	})
}

// load reads a persisted member field back (boot-time re-fold).
func (a *aggregator) load(idx int) (*service.SurfaceField, error) {
	data, err := os.ReadFile(a.memberPath(idx))
	if err != nil {
		return nil, err
	}
	var f service.SurfaceField
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	if n := len(f.Values); f.Nx <= 0 || f.Ny <= 0 || n%f.Nx != 0 || n/f.Nx != f.Ny {
		return nil, fmt.Errorf("ensemble: member %d field is %dx%d but has %d values", idx, f.Nx, f.Ny, len(f.Values))
	}
	return &f, nil
}

// add folds member idx's field (buffering until its predecessors are in).
func (a *aggregator) add(idx int, f *service.SurfaceField) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if f.Nx != a.stats.Nx || f.Ny != a.stats.Ny {
		return fmt.Errorf("ensemble: member %d field is %dx%d, campaign aggregates %dx%d",
			idx, f.Nx, f.Ny, a.stats.Nx, a.stats.Ny)
	}
	if err := a.fold.Add(idx, f.Values); err != nil {
		return err
	}
	a.fields[idx] = f.Values
	return nil
}

// skip advances the fold past a failed member.
func (a *aggregator) skip(idx int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fold.Skip(idx)
}

// folded reports how many members are in the statistics.
func (a *aggregator) folded() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats.Count()
}

// Aggregate is the campaign's statistical hazard product: per-cell mean
// and standard deviation of the members' surface PGV, the mean intensity
// map, exceedance-probability maps per threshold, and percentile PGV
// maps. Fields are row-major Nx x Ny (the PGVField layout). Members is
// the folded count — the aggregate is available (and meaningful) while
// the campaign is still running.
type Aggregate struct {
	Campaign string `json:"campaign"`
	Scenario string `json:"scenario"`
	State    State  `json:"state"`
	// Members is the campaign's total expansion; Folded counts members in
	// the statistics so far; Skipped counts members dropped (failed).
	Members int `json:"members"`
	Folded  int `json:"folded"`
	Skipped int `json:"skipped,omitempty"`

	Nx int `json:"nx"`
	Ny int `json:"ny"`

	MeanPGV       []float64 `json:"mean_pgv"`
	StdPGV        []float64 `json:"std_pgv"`
	MeanIntensity []float64 `json:"mean_intensity"`

	Thresholds []float64   `json:"thresholds_m_s"`
	ExceedProb [][]float64 `json:"exceed_prob"`

	Percentiles   []float64   `json:"percentiles"`
	PercentilePGV [][]float64 `json:"percentile_pgv"`

	// MeanPGVMax / MeanIntensityMax are the headline numbers: the peak of
	// the mean-PGV map and its intensity.
	MeanPGVMax       float64 `json:"mean_pgv_max_m_s"`
	MeanIntensityMax float64 `json:"mean_intensity_max"`
}

// snapshot renders the current statistics: metadata alone until a member
// has folded.
func (a *aggregator) snapshot() *Aggregate {
	a.mu.Lock()
	defer a.mu.Unlock()
	agg := &Aggregate{
		Thresholds:  append([]float64(nil), a.thresholds...),
		Percentiles: append([]float64(nil), a.percentiles...),
	}
	if a.stats.Count() == 0 {
		return agg
	}
	mean := a.stats.Mean()
	agg.Folded, agg.Nx, agg.Ny = a.stats.Count(), a.stats.Nx, a.stats.Ny
	agg.MeanPGV, agg.StdPGV, agg.ExceedProb = mean, a.stats.Std(), a.stats.ExceedProb()
	agg.MeanIntensity = seismo.IntensityField(mean)
	agg.MeanPGVMax = max(slices.Max(mean), 0)
	agg.MeanIntensityMax = seismo.Intensity(agg.MeanPGVMax)

	members := make([][]float64, 0, len(a.fields))
	for _, idx := range sortedKeys(a.fields) {
		members = append(members, a.fields[idx])
	}
	for _, p := range a.percentiles {
		agg.PercentilePGV = append(agg.PercentilePGV, seismo.PercentileField(members, p))
	}
	return agg
}
