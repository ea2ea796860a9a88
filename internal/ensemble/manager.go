package ensemble

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"swquake/internal/admission"
	"swquake/internal/manifest"
	"swquake/internal/service"
	"swquake/internal/telemetry"
	"swquake/internal/wal"
)

// tracePID is the trace-event process ID campaigns are recorded under
// (the job service owns pid 0).
const tracePID = 1

// Options configures a Manager.
type Options struct {
	// Service is the job service members run on (required).
	Service *service.Service
	// DataDir, when non-empty, makes campaigns durable: specs and member
	// outcomes are journaled to DataDir/campaigns.jsonl, member PGV
	// fields are persisted under DataDir/campaigns/<id>/, and Open
	// resumes unfinished campaigns on boot. Use the same DataDir as the
	// job service so member jobs and campaigns recover together.
	DataDir string
	// DefaultConcurrent bounds members in flight per campaign when the
	// spec doesn't say (0 = 2).
	DefaultConcurrent int
	// Logger receives campaign lifecycle events. Nil discards them.
	Logger *slog.Logger
	// Tracer, when set, records campaign lifecycles as Chrome trace
	// events on their own process track (pid 1, one thread per campaign).
	Tracer *telemetry.Tracer
}

// memberPhase is the scheduler's view of one member.
type memberPhase int

const (
	memberPending memberPhase = iota
	memberInflight
	memberDone
	memberSkipped
)

// campaign is the manager-internal record of one campaign.
type campaign struct {
	id      string
	spec    CampaignSpec
	members []service.JobSpec
	agg     *aggregator

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu           sync.Mutex
	state        State
	err          error
	userCanceled bool
	recovered    bool
	jobs         []string // member index -> job ID ("" before submission)
	phases       []memberPhase
	memberErrs   []string
	created      time.Time
	finished     time.Time
}

// Manager orchestrates campaigns over a job service.
type Manager struct {
	svc    *service.Service
	opts   Options
	log    *slog.Logger
	tracer *telemetry.Tracer
	wal    *wal.Log[campaignEvent] // nil without DataDir
	reg    *telemetry.Registry
	met    metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // campaign runner goroutines

	mu        sync.Mutex
	campaigns map[string]*campaign
	nextID    int
	closed    bool
}

// metrics are the manager's typed counters, each declared exactly once in
// declareMetrics; the point-in-time gauges are sampled from the campaigns.
type metrics struct {
	created, recovered                                          *telemetry.Counter
	membersSubmitted, membersDone, membersFailed, membersFolded *telemetry.Counter
	journalEvents, journalErrors                                *telemetry.Counter
	// finished is keyed by terminal state; each state keeps its own JSON key
	// and family, so it is three counters rather than one labeled family.
	finished map[State]*telemetry.Counter
}

// declareMetrics declares every campaign metric on m.reg (JSON key,
// Prometheus family — "" where the parent daemon never exposed one — and
// help), in exposition order.
func (m *Manager) declareMetrics() {
	r, mm := m.reg, &m.met
	mm.created = r.Counter("campaigns_created", "swquake_campaigns_created_total", "Campaigns accepted by Create.")
	mm.recovered = r.Counter("campaigns_recovered", "swquake_campaigns_recovered_total", "Campaigns resumed from the journal on boot.")
	mm.finished = map[State]*telemetry.Counter{
		StateDone:     r.Counter("campaigns_done", "swquake_campaigns_done_total", "Campaigns finished with every member aggregated."),
		StateFailed:   r.Counter("campaigns_failed", "swquake_campaigns_failed_total", "Campaigns finished with failed members."),
		StateCanceled: r.Counter("campaigns_canceled", "swquake_campaigns_canceled_total", "Campaigns canceled by users."),
	}
	mm.membersSubmitted = r.Counter("members_submitted", "swquake_campaign_members_submitted_total", "Member jobs submitted to the job service.")
	mm.membersDone = r.Counter("members_done", "swquake_campaign_members_done_total", "Member jobs finished and folded.")
	mm.membersFailed = r.Counter("members_failed", "swquake_campaign_members_failed_total", "Member jobs dropped from their aggregate.")
	mm.membersFolded = r.Counter("members_folded", "", "")
	mm.journalEvents = r.Counter("journal_events", "", "")
	mm.journalErrors = r.Counter("journal_errors", "swquake_campaign_journal_errors_total",
		"Campaign journal appends that failed: events the manager acted on without a durable record.")

	r.GaugeFunc("swquake_campaigns_running", "Campaigns currently executing.",
		func() float64 { n, _, _ := m.gauges(); return float64(n) })
	r.GaugeFunc("swquake_campaign_members_inflight", "Members currently submitted or running.",
		func() float64 { _, n, _ := m.gauges(); return float64(n) })
	r.GaugeFunc("swquake_campaign_members_pending", "Members of live campaigns not yet scheduled.",
		func() float64 { _, _, n := m.gauges(); return float64(n) })
}

// Registry exposes the manager's metrics: Ints is the "campaigns" object of
// quaked's /metrics, WriteProm the swquake_campaign* exposition.
func (m *Manager) Registry() *telemetry.Registry { return m.reg }

// Open builds a Manager. With Options.DataDir set it first recovers:
// the campaign journal is replayed, unfinished campaigns re-fold their
// persisted member fields in member-index order (bit-identical to the
// first life) and resume their remaining members — re-attaching to member
// jobs the job service itself recovered, resubmitting the rest.
func Open(opts Options) (*Manager, error) {
	if opts.Service == nil {
		return nil, fmt.Errorf("ensemble: Options.Service is required")
	}
	if opts.DefaultConcurrent <= 0 {
		opts.DefaultConcurrent = 2
	}
	if opts.Logger == nil {
		opts.Logger = telemetry.Discard()
	}
	m := &Manager{
		svc:       opts.Service,
		opts:      opts,
		log:       opts.Logger,
		tracer:    opts.Tracer,
		reg:       telemetry.NewRegistry(),
		campaigns: make(map[string]*campaign),
	}
	m.declareMetrics()
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	m.tracer.NameProcess(tracePID, "ensemble")

	if opts.DataDir == "" {
		return m, nil
	}
	if err := os.MkdirAll(filepath.Join(opts.DataDir, "campaigns"), 0o755); err != nil {
		return nil, err
	}
	var live []*campaignRecord
	var err error
	m.wal, err = wal.Recover(filepath.Join(opts.DataDir, "campaigns.jsonl"), func(events []campaignEvent) []campaignEvent {
		for _, rec := range replayJournal(events) {
			m.nextID = max(m.nextID, campSeq(rec.id))
			if !rec.terminal() && rec.spec != nil {
				live = append(live, rec)
			}
		}
		return compactedJournal(live, time.Now())
	})
	if err != nil {
		return nil, err
	}
	for _, rec := range live {
		if err := m.recoverCampaign(rec); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *Manager) stateDir(id string) string {
	if m.opts.DataDir == "" {
		return ""
	}
	return filepath.Join(m.opts.DataDir, "campaigns", id)
}

// logEvent appends to the campaign journal when the manager is durable.
func (m *Manager) logEvent(ev campaignEvent) {
	if m.wal == nil {
		return
	}
	ev.Time = time.Now()
	if err := m.wal.Append(ev); err != nil {
		// the caller has already acted on the event; what is lost is its
		// durable record, so the next boot may redo or forget this step
		m.met.journalErrors.Add(1)
		m.log.Error("campaign journal append failed", "campaign", ev.Campaign, "event", ev.Event, "error", err.Error())
		return
	}
	m.met.journalEvents.Add(1)
}

// newCampaign builds the in-memory record for a normalized spec.
func (m *Manager) newCampaign(id string, spec CampaignSpec) (*campaign, error) {
	members, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	c := &campaign{
		id:         id,
		spec:       spec,
		members:    members,
		agg:        newAggregator(m.stateDir(id), spec.Thresholds, spec.Percentiles),
		done:       make(chan struct{}),
		state:      StateRunning,
		jobs:       make([]string, len(members)),
		phases:     make([]memberPhase, len(members)),
		memberErrs: make([]string, len(members)),
		created:    time.Now(),
	}
	c.ctx, c.cancel = context.WithCancel(m.baseCtx)
	return c, nil
}

// recoverCampaign rebuilds a live campaign from its journal record: done
// members re-fold from their persisted fields (strictly ascending index,
// so the Welford sequence matches the first life bit for bit), skipped
// members advance the fold, and everything else is left pending for the
// scheduler — which will re-attach to jobs the service still knows.
func (m *Manager) recoverCampaign(rec *campaignRecord) error {
	spec := *rec.spec
	c, err := m.newCampaign(rec.id, spec)
	if err != nil {
		// a spec that no longer expands (e.g. scenario removed between
		// boots) is logged and dropped rather than failing the whole boot
		m.log.Error("recovered campaign no longer builds", "campaign", rec.id, "error", err.Error())
		return nil
	}
	c.recovered = true
	for idx, job := range rec.jobs {
		if idx >= 0 && idx < len(c.jobs) {
			c.jobs[idx] = job
		}
	}
	for _, idx := range sortedKeys(rec.done) {
		if idx < 0 || idx >= len(c.phases) {
			continue
		}
		mf, err := c.agg.load(idx)
		if err != nil {
			// field lost or torn: re-run the member (deterministic, so the
			// re-folded aggregate is unchanged)
			m.log.Warn("member field unreadable, re-running", "campaign", c.id, "member", idx, "error", err.Error())
			c.jobs[idx] = ""
			continue
		}
		if err := c.agg.add(idx, mf.Nx, mf.Ny, mf.Values); err != nil {
			return fmt.Errorf("ensemble: refolding %s member %d: %w", c.id, idx, err)
		}
		c.phases[idx] = memberDone
	}
	for _, idx := range sortedKeys(rec.skipped) {
		if idx < 0 || idx >= len(c.phases) {
			continue
		}
		if err := c.agg.skip(idx); err != nil {
			return fmt.Errorf("ensemble: replaying skip of %s member %d: %w", c.id, idx, err)
		}
		c.phases[idx] = memberSkipped
		c.memberErrs[idx] = rec.skipped[idx]
	}
	m.campaigns[c.id] = c
	m.met.recovered.Add(1)
	m.tracer.NameThread(tracePID, campSeq(c.id), c.id)
	m.log.Info("campaign recovered", "campaign", c.id,
		"members", len(c.members), "refolded", c.agg.folded())
	m.wg.Add(1)
	go m.runCampaign(c)
	return nil
}

// Create validates, journals and starts a campaign, returning its status.
func (m *Manager) Create(spec CampaignSpec) (Status, error) {
	norm, err := spec.normalized(m.opts.DefaultConcurrent)
	if err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, ErrClosed
	}
	m.nextID++
	id := fmt.Sprintf("camp-%06d", m.nextID)
	c, err := m.newCampaign(id, norm)
	if err != nil {
		m.mu.Unlock()
		return Status{}, err
	}
	m.campaigns[id] = c
	m.mu.Unlock()

	// write-ahead: the campaign is on disk before Create returns, so a
	// crash between accept and completion cannot lose it
	m.logEvent(campaignEvent{Event: "created", Campaign: id, Spec: &norm})
	m.met.created.Add(1)
	m.tracer.NameThread(tracePID, campSeq(id), id)
	m.log.Info("campaign created", "campaign", id, "scenario", norm.Scenario,
		"members", len(c.members), "concurrency", norm.MaxConcurrent)

	m.wg.Add(1)
	go m.runCampaign(c)
	return m.statusOf(c), nil
}

// runCampaign drives every member through the job service with bounded
// concurrency, then settles the campaign's terminal state.
func (m *Manager) runCampaign(c *campaign) {
	defer m.wg.Done()
	start := time.Now()
	sem := make(chan struct{}, c.spec.MaxConcurrent)
	var wg sync.WaitGroup
launch:
	for idx := range c.members {
		c.mu.Lock()
		phase := c.phases[idx]
		c.mu.Unlock()
		if phase == memberDone || phase == memberSkipped {
			continue
		}
		select {
		case <-c.ctx.Done():
			break launch
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			defer func() { <-sem }()
			m.runMember(c, idx)
		}(idx)
	}
	wg.Wait()
	m.finishCampaign(c, start)
}

// runMember runs one member end to end: (re)submit, wait, fold.
func (m *Manager) runMember(c *campaign, idx int) {
	spec := c.members[idx]
	c.mu.Lock()
	jobID := c.jobs[idx]
	c.phases[idx] = memberInflight
	c.mu.Unlock()

	if jobID != "" {
		// recovered campaign: re-attach if the service still knows the job
		// (durable services requeue unfinished jobs under their original
		// IDs); otherwise fall through to a fresh submission
		if _, err := m.svc.Status(jobID); err != nil {
			jobID = ""
		}
	}
	if jobID == "" {
		// campaign members are batch-class work: the admission scheduler's
		// weighted dispatch keeps a sweep from starving interactive jobs
		spec.Class = admission.ClassBatch
		req, err := spec.Request()
		if err != nil {
			m.memberSkip(c, idx, err)
			return
		}
		for {
			if m.draining() {
				m.park(c, idx) // shutdown: leave pending for the next boot
				return
			}
			id, err := m.svc.Submit(req)
			if err == nil {
				jobID = id
				break
			}
			switch {
			case errors.Is(err, service.ErrQueueFull),
				errors.Is(err, admission.ErrRateLimited),
				errors.Is(err, admission.ErrShedding):
				// backpressure or load shedding: the campaign yields rather
				// than spinning, honoring the rejection's Retry-After hint
				// when it carries one (capped so drains stay responsive)
				wait := 50 * time.Millisecond
				if hint, ok := admission.RetryAfter(err); ok && hint > wait {
					if hint > time.Second {
						hint = time.Second
					}
					wait = hint
				}
				select {
				case <-c.ctx.Done():
					m.park(c, idx)
					return
				case <-time.After(wait):
				}
			case errors.Is(err, service.ErrClosed):
				m.park(c, idx)
				return
			default:
				// includes admission.ErrNeverFits: a member bigger than the
				// memory budget can never run on this daemon — skip it, the
				// campaign completes on the members that fit
				m.memberSkip(c, idx, err)
				return
			}
		}
		c.mu.Lock()
		c.jobs[idx] = jobID
		c.mu.Unlock()
		m.logEvent(campaignEvent{Event: "member", Campaign: c.id, Member: idx, Job: jobID})
		m.met.membersSubmitted.Add(1)
	}

	st, err := m.svc.Wait(c.ctx, jobID)
	if err != nil {
		m.park(c, idx) // canceled campaign or shutdown; job outcome unknown
		return
	}
	switch st.State {
	case service.StateDone:
		res, err := m.svc.Result(jobID)
		if err != nil {
			m.memberSkip(c, idx, err)
			return
		}
		m.memberFold(c, idx, jobID, res)
	default: // failed or canceled: drop from the aggregate
		cause := st.Error
		if cause == "" {
			cause = string(st.State)
		}
		m.memberSkip(c, idx, errors.New(cause))
	}
}

// park returns a member to pending without resolving it — the shutdown
// path. Durable campaigns pick it up on the next boot.
func (m *Manager) park(c *campaign, idx int) {
	c.mu.Lock()
	c.phases[idx] = memberPending
	c.mu.Unlock()
}

// memberFold persists and folds a finished member's surface field.
func (m *Manager) memberFold(c *campaign, idx int, jobID string, res *service.Result) {
	if res.PGV == nil {
		m.memberSkip(c, idx, errors.New("member result has no surface PGV field"))
		return
	}
	// write-ahead for the aggregate: the field is on disk before the
	// member_done event, so a journaled member always re-folds
	if err := c.agg.persist(idx, res.PGV.Nx, res.PGV.Ny, res.PGV.Values); err != nil {
		// fold in memory anyway; without the journal event the next boot
		// simply re-runs this member (deterministically, same bits)
		m.log.Warn("member field persist failed", "campaign", c.id, "member", idx, "error", err.Error())
	} else {
		m.logEvent(campaignEvent{Event: "member_done", Campaign: c.id, Member: idx})
	}
	if err := c.agg.add(idx, res.PGV.Nx, res.PGV.Ny, res.PGV.Values); err != nil {
		m.memberSkip(c, idx, err)
		return
	}
	c.mu.Lock()
	c.phases[idx] = memberDone
	c.mu.Unlock()
	m.met.membersDone.Add(1)
	m.met.membersFolded.Add(1)
	m.tracer.Instant(tracePID, campSeq(c.id), "campaign", "member_done", time.Now(),
		map[string]any{"member": idx, "job": jobID})
	m.log.Info("campaign member done", "campaign", c.id, "member", idx, "job", jobID,
		"folded", c.agg.folded())
}

// memberSkip drops a member from the aggregate after a permanent failure.
func (m *Manager) memberSkip(c *campaign, idx int, cause error) {
	m.logEvent(campaignEvent{Event: "member_skip", Campaign: c.id, Member: idx, Error: cause.Error()})
	if err := c.agg.skip(idx); err != nil {
		m.log.Error("member skip failed", "campaign", c.id, "member", idx, "error", err.Error())
	}
	c.mu.Lock()
	c.phases[idx] = memberSkipped
	c.memberErrs[idx] = cause.Error()
	c.mu.Unlock()
	m.met.membersFailed.Add(1)
	m.log.Warn("campaign member skipped", "campaign", c.id, "member", idx, "error", cause.Error())
}

// finishCampaign settles the terminal state once every member goroutine
// has returned. Members left pending by a shutdown keep the campaign
// non-terminal: nothing terminal is journaled, so the next boot resumes.
func (m *Manager) finishCampaign(c *campaign, started time.Time) {
	c.mu.Lock()
	var unresolved, skipped int
	for _, ph := range c.phases {
		switch ph {
		case memberDone:
		case memberSkipped:
			skipped++
		default:
			unresolved++
		}
	}
	var state State
	switch {
	case c.userCanceled:
		state = StateCanceled
	case unresolved > 0:
		// shutdown parked members: leave the campaign running on disk
		c.mu.Unlock()
		close(c.done)
		m.log.Info("campaign parked for next boot", "campaign", c.id, "pending", unresolved)
		return
	case skipped > 0:
		state = StateFailed
		for idx, e := range c.memberErrs {
			if e != "" {
				c.err = fmt.Errorf("ensemble: member %d failed: %s", idx, e)
				break
			}
		}
	default:
		state = StateDone
	}
	c.state = state
	c.finished = time.Now()
	jobs := append([]string(nil), c.jobs...)
	members := len(c.members)
	c.mu.Unlock()
	// journaled before a waiter hears of it: Wait returns a finished campaign
	// whose end is on disk, or counted and logged as lost
	m.logEvent(campaignEvent{Event: string(state), Campaign: c.id})
	close(c.done)
	m.met.finished[state].Add(1)
	m.tracer.Span(tracePID, campSeq(c.id), "campaign", "running", started, time.Since(started),
		map[string]any{"state": string(state), "members": members})
	m.log.Info("campaign finished", "campaign", c.id, "state", string(state),
		"members", members, "folded", c.agg.folded(), "skipped", skipped)

	if dir := m.stateDir(c.id); dir != "" {
		cm := manifest.CampaignManifest{
			ID: c.id, Name: c.spec.Name, Scenario: c.spec.Scenario, State: string(state),
			Members: members, Folded: c.agg.folded(), Skipped: skipped,
			MemberJobs: jobs, Thresholds: append([]float64(nil), c.spec.Thresholds...),
			Created: c.created, Finished: c.finished,
		}
		if agg := c.agg.snapshot(); agg != nil {
			cm.MeanPGVMax = agg.MeanPGVMax
			cm.MeanIntensityMax = agg.MeanIntensityMax
		}
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = cm.Save(filepath.Join(dir, "manifest.json"))
		}
		if err != nil {
			m.log.Error("campaign manifest write failed", "campaign", c.id, "error", err.Error())
		}
	}
}

func (m *Manager) draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// statusOf snapshots one campaign.
func (m *Manager) statusOf(c *campaign) Status {
	c.mu.Lock()
	st := Status{
		ID:        c.id,
		Name:      c.spec.Name,
		Scenario:  c.spec.Scenario,
		State:     c.state,
		Members:   len(c.members),
		Recovered: c.recovered,
		Created:   c.created,
		Finished:  c.finished,
	}
	if c.err != nil {
		st.Error = c.err.Error()
	}
	jobs := append([]string(nil), c.jobs...)
	phases := append([]memberPhase(nil), c.phases...)
	c.mu.Unlock()

	st.MemberJobs = make([]MemberStatus, len(jobs))
	for idx, job := range jobs {
		ms := MemberStatus{Index: idx, Job: job}
		switch phases[idx] {
		case memberDone:
			st.Done++
			ms.State = string(service.StateDone)
		case memberSkipped:
			st.Failed++
			ms.State = "skipped"
		case memberInflight:
			st.Running++
			ms.State = "running"
			if job != "" {
				if js, err := m.svc.Status(job); err == nil {
					ms.State = string(js.State)
				}
			}
		default:
			st.Pending++
			ms.State = "pending"
		}
		st.MemberJobs[idx] = ms
	}
	st.Folded = c.agg.folded()
	return st
}

// Status reports a campaign's current state and member progress.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrUnknownCampaign
	}
	return m.statusOf(c), nil
}

// List reports every known campaign, newest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := make([]string, 0, len(m.campaigns))
	for id := range m.campaigns {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Strings(ids)
	out := make([]Status, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if st, err := m.Status(ids[i]); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// Aggregate returns the campaign's current statistical hazard product.
// It is available while the campaign runs (over the members folded so
// far); before any member has folded the maps are empty but the metadata
// is valid.
func (m *Manager) Aggregate(id string) (*Aggregate, error) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrUnknownCampaign
	}
	agg := c.agg.snapshot()
	if agg == nil {
		agg = &Aggregate{
			Thresholds:  append([]float64(nil), c.spec.Thresholds...),
			Percentiles: append([]float64(nil), c.spec.Percentiles...),
		}
	}
	c.mu.Lock()
	agg.Campaign = c.id
	agg.Scenario = c.spec.Scenario
	agg.State = c.state
	agg.Members = len(c.members)
	for _, ph := range c.phases {
		if ph == memberSkipped {
			agg.Skipped++
		}
	}
	c.mu.Unlock()
	return agg, nil
}

// Cancel requests cancellation of a campaign: pending members stop being
// scheduled and every in-flight member job is canceled at its next step
// boundary. Cancel reports whether the campaign exists; the campaign
// reaches StateCanceled once its members wind down.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	c.mu.Lock()
	if c.state.Terminal() {
		c.mu.Unlock()
		return true
	}
	c.userCanceled = true
	jobs := append([]string(nil), c.jobs...)
	c.mu.Unlock()
	c.cancel()
	for _, job := range jobs {
		if job != "" {
			m.svc.Cancel(job)
		}
	}
	m.log.Warn("campaign canceled", "campaign", id)
	return true
}

// Wait blocks until the campaign's runner settles (terminal state, or
// parked by a shutdown) or the context ends.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrUnknownCampaign
	}
	select {
	case <-c.done:
		return m.statusOf(c), nil
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// Drain stops accepting campaigns and new member submissions, then waits
// for in-flight members to resolve (the job service keeps executing them
// until its own Drain). If the context ends first, member watchers are
// aborted; durable campaigns park and resume on the next boot. Call Drain
// before Service.Drain so finishing jobs still get folded.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		m.baseCancel()
		<-idle
		err = ctx.Err()
	}
	if m.wal != nil {
		m.wal.Close()
	}
	return err
}

// Metrics is a consistent snapshot of the campaign counters.
type Metrics struct {
	Created, Recovered         int64
	Done, Failed, Canceled     int64
	MembersSubmitted           int64
	MembersDone, MembersFailed int64
	MembersFolded              int64
	JournalEvents              int64
	JournalErrors              int64
	// Running / MembersInflight / MembersPending are point-in-time gauges.
	Running, MembersInflight, MembersPending int64
}

// Metrics snapshots the counters and gauges.
func (m *Manager) Metrics() Metrics {
	mm := &m.met
	out := Metrics{
		Created:          mm.created.Value(),
		Recovered:        mm.recovered.Value(),
		Done:             mm.finished[StateDone].Value(),
		Failed:           mm.finished[StateFailed].Value(),
		Canceled:         mm.finished[StateCanceled].Value(),
		MembersSubmitted: mm.membersSubmitted.Value(),
		MembersDone:      mm.membersDone.Value(),
		MembersFailed:    mm.membersFailed.Value(),
		MembersFolded:    mm.membersFolded.Value(),
		JournalEvents:    mm.journalEvents.Value(),
		JournalErrors:    mm.journalErrors.Value(),
	}
	out.Running, out.MembersInflight, out.MembersPending = m.gauges()
	return out
}

// gauges counts live campaigns and their member phases.
func (m *Manager) gauges() (running, inflight, pending int64) {
	m.mu.Lock()
	cs := make([]*campaign, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		cs = append(cs, c)
	}
	m.mu.Unlock()
	for _, c := range cs {
		c.mu.Lock()
		if !c.state.Terminal() {
			running++
			for _, ph := range c.phases {
				switch ph {
				case memberInflight:
					inflight++
				case memberPending:
					pending++
				}
			}
		}
		c.mu.Unlock()
	}
	return
}
