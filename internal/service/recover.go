package service

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"swquake/internal/admission"
	"swquake/internal/clock"
	"swquake/internal/wal"
)

func journalPath(dataDir string) string {
	return filepath.Join(dataDir, "journal.jsonl")
}

// ckptDir is the per-job checkpoint directory under DataDir.
func (s *Service) ckptDir(jobID string) string {
	return filepath.Join(s.opts.DataDir, "checkpoints", jobID)
}

// jobSeq extracts the sequence number from a "job-%06d" ID (0 if malformed).
func jobSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}

// recoverJournal is the durable half of a boot: the journal the last
// process left is replayed and compacted to the jobs that never reached a
// terminal state (wal.Recover), which come back as live, with the highest
// job number ever issued.
func recoverJournal(dataDir string, clk clock.Clock) (journal *wal.Log[journalEvent], live []*jobRecord, maxID int, err error) {
	if err := os.MkdirAll(filepath.Join(dataDir, "checkpoints"), 0o755); err != nil {
		return nil, nil, 0, err
	}
	journal, err = wal.Recover(journalPath(dataDir), func(events []journalEvent) []journalEvent {
		recs := replayJournal(events)
		for _, rec := range recs {
			maxID = max(maxID, jobSeq(rec.id))
			if rec.live() {
				live = append(live, rec)
			}
		}
		return compactedJournal(recs, clk.Now())
	})
	return journal, live, maxID, err
}

// requeueRecovered turns a journal record back into a queued job under the
// job's original ID. A spec that no longer builds (e.g. a scenario removed
// between boots) or that Submit would refuse (e.g. a layout that does not
// divide the mesh) — or one that no longer fits a shrunken memory budget —
// is born failed instead of erroring the whole boot.
func (s *Service) requeueRecovered(rec *jobRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := newJob(rec.id, Request{Spec: rec.spec}, "")
	j.attempt, j.recovered = rec.attempt, true
	bornFailed := func(err error) error {
		s.transitionLocked(j, change{from: stateNew, to: StateFailed, err: err})
		return nil
	}
	req, err := rec.spec.Request()
	key := ""
	if err == nil {
		req, key, err = normalize(req)
	}
	if err != nil {
		return bornFailed(fmt.Errorf("service: recovered job %s no longer builds: %w", rec.id, err))
	}
	cost := s.estimateCost(req)
	if !s.ledger.Fits(cost) {
		return bornFailed(fmt.Errorf("service: recovered job %s: %w (needs %s of a %s budget)", rec.id,
			admission.ErrNeverFits, admission.FormatBytes(cost), admission.FormatBytes(s.ledger.Total())))
	}
	j.req, j.key, j.stepsTotal = req, key, req.Config.Steps
	j.item = &admission.Item{ID: j.id, Class: req.Class, Bytes: cost, Recovered: true, Payload: j}
	if err := s.enqueue(j, stateNew); err != nil {
		return fmt.Errorf("service: recovery requeueing %s: %w", rec.id, err)
	}
	return nil
}
