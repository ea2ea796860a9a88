package manifest

import (
	"encoding/json"
	"io"
	"time"

	"swquake/internal/atomicio"
)

// CampaignManifest is the machine-readable record of a finished ensemble
// campaign — the batch-level counterpart of RunManifest. The ensemble
// manager archives one next to the campaign's aggregate state, so a
// completed sweep leaves a durable summary even after the in-memory
// campaign is gone.
type CampaignManifest struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Scenario string `json:"scenario"`
	State    string `json:"state"`

	Members int `json:"members"`
	// Folded counts members whose surface fields entered the aggregate;
	// Skipped counts members that failed or were canceled.
	Folded  int `json:"folded"`
	Skipped int `json:"skipped,omitempty"`

	// MemberJobs maps member index to the job ID that produced it ("" for
	// members that never ran).
	MemberJobs []string `json:"member_jobs,omitempty"`

	// Aggregate headline numbers: the peak of the mean-PGV map and its
	// intensity, plus the exceedance thresholds the campaign tracked.
	MeanPGVMax       float64   `json:"mean_pgv_max_m_s,omitempty"`
	MeanIntensityMax float64   `json:"mean_intensity_max,omitempty"`
	Thresholds       []float64 `json:"thresholds_m_s,omitempty"`

	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished"`
}

// Write emits the campaign manifest as indented JSON.
func (m CampaignManifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Save writes the campaign manifest to a file atomically.
func (m CampaignManifest) Save(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return m.Write(w)
	})
}
