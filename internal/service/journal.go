package service

import (
	"time"

	"swquake/internal/admission"
	"swquake/internal/scenario"
)

// JobSpec is the replayable form of a submission: a named scenario plus
// overrides, the process-grid layout and the per-job deadline. Unlike
// core.Config (which holds interfaces — the velocity model, source time
// functions), a JobSpec round-trips through JSON, so it is what the
// durable journal records and what recovery-on-boot rebuilds a Request
// from. Requests submitted with a Spec survive a daemon crash; requests
// carrying only a raw Config do not (they are never journaled).
type JobSpec struct {
	Scenario  string             `json:"scenario"`
	Overrides scenario.Overrides `json:"overrides,omitempty"`
	MX        int                `json:"mx,omitempty"`
	MY        int                `json:"my,omitempty"`
	TimeoutS  float64            `json:"timeout_s,omitempty"`
	// Class is the admission priority class ("interactive" or "batch";
	// empty = interactive). Journaled so a recovered batch job re-enters
	// the batch lane instead of jumping ahead of interactive work.
	Class admission.Class `json:"class,omitempty"`
}

// Request builds the full Request from the spec — the one way a spec
// becomes a submission, shared by recovery-on-boot, campaign members and
// quaked's POST /v1/jobs, so all three run exactly what the journal records.
func (sp JobSpec) Request() (Request, error) {
	cfg, err := scenario.Build(sp.Scenario, sp.Overrides)
	if err != nil {
		return Request{}, err
	}
	class, err := sp.Class.Normalize()
	if err != nil {
		return Request{}, err
	}
	spec := sp
	return Request{
		Config:  cfg,
		MX:      sp.MX,
		MY:      sp.MY,
		Timeout: time.Duration(sp.TimeoutS * float64(time.Second)),
		Class:   class,
		Spec:    &spec,
	}, nil
}

// journalEvent is one line of the job journal, DataDir/journal.jsonl — an
// internal/wal log, which owns the file format and the fsync-per-append
// contract. Event is one of submitted, started, progress, engine_fault,
// retrying, done, failed, canceled.
type journalEvent struct {
	Time    time.Time `json:"t"`
	Event   string    `json:"event"`
	JobID   string    `json:"job"`
	Spec    *JobSpec  `json:"spec,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	Step    int       `json:"step,omitempty"`
	Error   string    `json:"error,omitempty"`
}

// jobRecord is the folded per-job outcome of a journal replay.
type jobRecord struct {
	id      string
	spec    *JobSpec
	last    string // the last event seen
	attempt int
	step    int
}

// replayJournal folds events into per-job records, in first-seen order.
func replayJournal(events []journalEvent) []*jobRecord {
	byID := make(map[string]*jobRecord)
	var order []*jobRecord
	for _, ev := range events {
		rec, ok := byID[ev.JobID]
		if !ok {
			rec = &jobRecord{id: ev.JobID}
			byID[ev.JobID] = rec
			order = append(order, rec)
		}
		rec.last = ev.Event
		if ev.Spec != nil {
			rec.spec = ev.Spec
		}
		if ev.Attempt > rec.attempt {
			rec.attempt = ev.Attempt
		}
		if ev.Step > rec.step {
			rec.step = ev.Step
		}
	}
	return order
}

// terminal reports whether the record's last journaled event ends the job.
func (r *jobRecord) terminal() bool { return State(r.last).Terminal() }

// live reports whether a boot requeues the record's job.
func (r *jobRecord) live() bool { return !r.terminal() && r.spec != nil }

// compactedJournal is the boot-compaction policy: just the submitted events
// of still-live jobs, so the file stays bounded across restarts instead of
// accreting every event since the first boot. The recorded Attempt and Step
// carry each job's progress into the new epoch. When the highest-numbered job
// is not live, its last event is kept alone: it is the ID high-water mark, so
// no boot — this code's or an older binary's, whose replay reads it the same
// way — ever issues a job ID again.
func compactedJournal(recs []*jobRecord, now time.Time) []journalEvent {
	var events []journalEvent
	var top *jobRecord
	for _, rec := range recs {
		if top == nil || jobSeq(rec.id) > jobSeq(top.id) {
			top = rec
		}
		if rec.live() {
			events = append(events, journalEvent{
				Time: now, Event: "submitted", JobID: rec.id,
				Spec: rec.spec, Attempt: rec.attempt, Step: rec.step,
			})
		}
	}
	if top != nil && !top.live() {
		events = append(events, journalEvent{Time: now, Event: top.last, JobID: top.id})
	}
	return events
}
