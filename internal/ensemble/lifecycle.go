package ensemble

import "slices"

// The member lifecycle, spelled once (DESIGN.md §3.6 has it as a table): the
// legal edges, the one function that takes a member along one, and what
// each edge carries with it.

// memberPhase is where one member stands in its campaign.
type memberPhase int

const (
	memberPending memberPhase = iota // no job yet, or parked
	memberRunning                    // its job is submitted or running
	memberDone                       // its field is in the aggregate
	memberSkipped                    // dropped from the aggregate for good
)

// memberEdges lists every edge a member may take; anything else is refused.
var memberEdges = map[memberPhase][]memberPhase{
	memberPending: {memberRunning, memberSkipped},             // has a job; refused at submission
	memberRunning: {memberDone, memberSkipped, memberPending}, // folded; failed; parked
}

// change is one requested member transition: the edge, and what it needs to
// know.
type change struct {
	from, to memberPhase
	job      string // running: the member's job
	err      error  // skipped: why
	// unsaved marks a done member whose field did not reach the disk: the
	// journal must not claim it, so the next boot runs the member again
	unsaved bool
	// replay marks an edge the journal already holds — a member a recovered
	// campaign re-folds or re-skips, a job re-attached after a reboot — so
	// nothing is journaled, counted, logged or traced again
	replay bool
}

// take moves member idx of c along the edge ch names and reports whether it
// did: it refuses when the member is not in ch.from or the table lacks the
// edge. It is the only code that writes a member's phase, and it does what
// the edge carries: the journal event (none for a park), the fold's skip,
// the counters, the log line and the trace instant.
func (m *Manager) take(c *campaign, idx int, ch change) bool {
	c.mu.Lock()
	if c.phases[idx] != ch.from || !slices.Contains(memberEdges[ch.from], ch.to) {
		c.mu.Unlock()
		return false
	}
	c.phases[idx] = ch.to
	switch ch.to {
	case memberRunning:
		c.jobs[idx] = ch.job
	case memberSkipped:
		c.memberErrs[idx] = ch.err.Error()
	}
	job := c.jobs[idx]
	c.mu.Unlock()

	if ch.to == memberSkipped {
		if err := c.agg.skip(idx); err != nil {
			m.log.Error("member skip failed", "campaign", c.id, "member", idx, "error", err.Error())
		}
	}
	if ch.replay {
		return true
	}
	switch ch.to {
	case memberRunning:
		m.logEvent(campaignEvent{Event: "member", Campaign: c.id, Member: idx, Job: job})
		m.met.membersSubmitted.Add(1)
	case memberDone:
		if !ch.unsaved {
			m.logEvent(campaignEvent{Event: "member_done", Campaign: c.id, Member: idx})
		}
		m.met.membersDone.Add(1)
		m.met.membersFolded.Add(1)
		m.tracer.Instant(tracePID, campSeq(c.id), "campaign", "member_done", m.clk.Now(),
			map[string]any{"member": idx, "job": job})
		m.log.Info("campaign member done", "campaign", c.id, "member", idx, "job", job,
			"folded", c.agg.folded())
	case memberSkipped:
		m.logEvent(campaignEvent{Event: "member_skip", Campaign: c.id, Member: idx, Error: ch.err.Error()})
		m.met.membersFailed.Add(1)
		m.log.Warn("campaign member skipped", "campaign", c.id, "member", idx, "error", ch.err.Error())
	}
	return true
}
