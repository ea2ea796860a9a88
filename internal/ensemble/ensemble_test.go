package ensemble

import (
	"strings"
	"testing"

	"swquake/internal/scenario"
)

func TestExpandOrderVariationsOuterSeedsInner(t *testing.T) {
	spec := CampaignSpec{
		Scenario: "tangshan",
		Base:     scenario.Overrides{Nx: 20, Ny: 18, Nz: 12, Steps: 10},
		Variations: []scenario.Overrides{
			{Steps: 20},
			{Nonlinear: true},
		},
		Seeds: SeedAxis{Base: 100, Count: 3, HetAmplitude: 0.05, HetCorrLen: 1500},
	}
	if n := spec.Members(); n != 6 {
		t.Fatalf("Members() = %d, want 6", n)
	}
	members := spec.Expand()
	if len(members) != 6 {
		t.Fatalf("expanded to %d members", len(members))
	}
	// member index = variation*seeds + seed offset
	for i, m := range members {
		v, s := i/3, i%3
		if m.Scenario != "tangshan" {
			t.Fatalf("member %d scenario %q", i, m.Scenario)
		}
		if m.Overrides.Seed != 100+int64(s) {
			t.Fatalf("member %d seed %d, want %d", i, m.Overrides.Seed, 100+s)
		}
		if m.Overrides.HetAmplitude != 0.05 || m.Overrides.HetCorrLen != 1500 {
			t.Fatalf("member %d het fields %+v", i, m.Overrides)
		}
		wantSteps := 20
		if v == 1 {
			wantSteps = 10 // base value: variation 1 doesn't touch steps
		}
		if m.Overrides.Steps != wantSteps {
			t.Fatalf("member %d steps %d, want %d", i, m.Overrides.Steps, wantSteps)
		}
		if v == 1 && !m.Overrides.Nonlinear {
			t.Fatalf("member %d lost the nonlinear variation", i)
		}
		// base grid survives overlay
		if m.Overrides.Nx != 20 || m.Overrides.Ny != 18 {
			t.Fatalf("member %d grid %+v", i, m.Overrides)
		}
	}
}

func TestExpandNoAxesIsSingleMember(t *testing.T) {
	spec := CampaignSpec{Scenario: "quickstart", Base: scenario.Overrides{Steps: 5}}
	members := spec.Expand()
	if len(members) != 1 || members[0].Overrides.Seed != 0 {
		t.Fatalf("members %+v", members)
	}
}

func TestOverlayNonZeroFieldsWin(t *testing.T) {
	base := scenario.Overrides{Nx: 10, Steps: 50, Qs: 40}
	v := scenario.Overrides{Steps: 99, Nonlinear: true}
	o := overlay(base, v)
	if o.Nx != 10 || o.Steps != 99 || o.Qs != 40 || !o.Nonlinear {
		t.Fatalf("overlay = %+v", o)
	}
}

func TestNormalizedValidation(t *testing.T) {
	cases := []struct {
		name string
		spec CampaignSpec
		want string // error substring; "" = must pass
	}{
		{"no scenario", CampaignSpec{}, "names no scenario"},
		{"unknown scenario", CampaignSpec{Scenario: "atlantis"}, "unknown scenario"},
		{"seed sweep without amplitude",
			CampaignSpec{Scenario: "quickstart", Seeds: SeedAxis{Count: 3}},
			"het_amplitude"},
		{"negative seed count",
			CampaignSpec{Scenario: "quickstart", Seeds: SeedAxis{Count: -1}},
			"negative seed count"},
		{"variation changes grid",
			CampaignSpec{Scenario: "tangshan", Variations: []scenario.Overrides{{Nx: 99}}},
			"surface grid"},
		{"variation sets seed",
			CampaignSpec{Scenario: "quickstart", Variations: []scenario.Overrides{{Seed: 3, HetAmplitude: 0.05}}},
			"seeds axis"},
		{"percentile out of range",
			CampaignSpec{Scenario: "quickstart", Percentiles: []float64{1.5}},
			"outside [0, 1]"},
		{"member that cannot build",
			CampaignSpec{Scenario: "quickstart", Variations: []scenario.Overrides{{Nonlinear: true}}},
			"does not build"},
		{"too many members",
			CampaignSpec{Scenario: "quickstart", Seeds: SeedAxis{Count: MaxMembers + 1, HetAmplitude: 0.05}},
			"max"},
		{"valid seed sweep",
			CampaignSpec{Scenario: "quickstart", Base: scenario.Overrides{Steps: 5},
				Seeds: SeedAxis{Base: 1, Count: 2, HetAmplitude: 0.05}},
			""},
	}
	for _, tc := range cases {
		norm, err := tc.spec.normalized()
		if tc.want == "" {
			if err != nil {
				t.Fatalf("%s: unexpected error %v", tc.name, err)
			}
			// defaults filled into the canonical (journaled) form
			if norm.MaxConcurrent != 2 {
				t.Fatalf("%s: MaxConcurrent %d", tc.name, norm.MaxConcurrent)
			}
			if len(norm.Thresholds) != len(DefaultThresholds) || len(norm.Percentiles) != len(DefaultPercentiles) {
				t.Fatalf("%s: defaults not filled: %+v", tc.name, norm)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestCampSeq(t *testing.T) {
	if campSeq("camp-000042") != 42 || campSeq("bogus") != 0 {
		t.Fatal("campSeq parsing broken")
	}
}

func TestReplayJournalFoldsRecords(t *testing.T) {
	spec := &CampaignSpec{Scenario: "quickstart"}
	events := []campaignEvent{
		{Event: "created", Campaign: "camp-000001", Spec: spec},
		{Event: "member", Campaign: "camp-000001", Member: 0, Job: "job-000001"},
		{Event: "member_done", Campaign: "camp-000001", Member: 0},
		{Event: "member", Campaign: "camp-000001", Member: 1, Job: "job-000002"},
		{Event: "member_skip", Campaign: "camp-000001", Member: 1, Error: "boom"},
		{Event: "created", Campaign: "camp-000002", Spec: spec},
		{Event: "done", Campaign: "camp-000002"},
	}
	recs := replayJournal(events)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records", len(recs))
	}
	r := recs[0]
	if r.terminal() || r.jobs[0] != "job-000001" || !r.done[0] || r.skipped[1] != "boom" {
		t.Fatalf("record %+v", r)
	}
	if !recs[1].terminal() {
		t.Fatal("finished campaign not terminal")
	}
}
