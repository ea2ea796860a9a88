package ensemble

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// The campaign journal, campaigns.jsonl in the job service's data directory,
// is an internal/wal log like the service's own (that package owns the file
// format and the fsync-per-append contract), compacted on boot to just the
// live campaigns and the ID high-water mark.
// A campaign's durable form is its normalized spec (expansion is
// deterministic) plus per-member outcomes; member PGV fields are persisted
// separately under the campaign's state directory so a resumed campaign
// re-folds exactly the fields the first life saw.

// campaignEvent is one line of the campaign journal. Event is one of
// created, member (submitted, carries the job ID), member_done,
// member_skip, done, failed, canceled.
type campaignEvent struct {
	Time     time.Time     `json:"t"`
	Event    string        `json:"event"`
	Campaign string        `json:"campaign"`
	Spec     *CampaignSpec `json:"spec,omitempty"`
	Member   int           `json:"member"`
	Job      string        `json:"job,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// campaignRecord is the folded per-campaign outcome of a journal replay.
type campaignRecord struct {
	id    string
	spec  *CampaignSpec
	state string // last lifecycle event: created, done, failed, canceled
	// jobs maps member index -> last submitted job ID.
	jobs map[int]string
	// done members have their fields persisted; skipped members failed.
	done    map[int]bool
	skipped map[int]string
}

func (r *campaignRecord) terminal() bool { return State(r.state).Terminal() }

// live reports whether a boot resumes the record's campaign.
func (r *campaignRecord) live() bool { return !r.terminal() && r.spec != nil }

// replayJournal folds events into per-campaign records in first-seen order.
func replayJournal(events []campaignEvent) []*campaignRecord {
	byID := make(map[string]*campaignRecord)
	var order []*campaignRecord
	for _, ev := range events {
		rec, ok := byID[ev.Campaign]
		if !ok {
			rec = &campaignRecord{
				id:      ev.Campaign,
				state:   "created",
				jobs:    make(map[int]string),
				done:    make(map[int]bool),
				skipped: make(map[int]string),
			}
			byID[ev.Campaign] = rec
			order = append(order, rec)
		}
		switch ev.Event {
		case "created":
			if ev.Spec != nil {
				rec.spec = ev.Spec
			}
		case "member":
			rec.jobs[ev.Member] = ev.Job
		case "member_done":
			rec.done[ev.Member] = true
		case "member_skip":
			rec.skipped[ev.Member] = ev.Error
		case "done", "failed", "canceled":
			rec.state = ev.Event
		}
	}
	return order
}

// compactedJournal is the boot-compaction policy over a replay's records:
// per live campaign the created event plus each member's last known outcome,
// so the file stays bounded across restarts. When the highest-numbered
// campaign is not live, its last lifecycle event is kept alone: it is the ID
// high-water mark, so no boot — this code's or an older binary's, whose
// replay reads it the same way — ever issues a campaign ID again, and a new
// campaign never writes into an old one's state directory.
func compactedJournal(recs []*campaignRecord, now time.Time) []campaignEvent {
	var events []campaignEvent
	var top *campaignRecord
	for _, rec := range recs {
		if top == nil || campSeq(rec.id) > campSeq(top.id) {
			top = rec
		}
		if !rec.live() {
			continue
		}
		events = append(events, campaignEvent{Time: now, Event: "created", Campaign: rec.id, Spec: rec.spec})
		for _, idx := range sortedKeys(rec.jobs) {
			events = append(events, campaignEvent{Time: now, Event: "member", Campaign: rec.id, Member: idx, Job: rec.jobs[idx]})
		}
		for _, idx := range sortedKeys(rec.done) {
			events = append(events, campaignEvent{Time: now, Event: "member_done", Campaign: rec.id, Member: idx})
		}
		for _, idx := range sortedKeys(rec.skipped) {
			events = append(events, campaignEvent{Time: now, Event: "member_skip", Campaign: rec.id, Member: idx, Error: rec.skipped[idx]})
		}
	}
	if top != nil && !top.live() {
		events = append(events, campaignEvent{Time: now, Event: top.state, Campaign: top.id})
	}
	return events
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// campSeq extracts the sequence number from a "camp-%06d" ID (0 if
// malformed).
func campSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "camp-"))
	return n
}
