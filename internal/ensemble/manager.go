package ensemble

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"swquake/internal/admission"
	"swquake/internal/clock"
	"swquake/internal/manifest"
	"swquake/internal/scenario"
	"swquake/internal/service"
	"swquake/internal/telemetry"
	"swquake/internal/wal"
)

// tracePID is the trace-event process ID campaigns are recorded under
// (the job service owns pid 0).
const tracePID = 1

// A member the job service refuses for backpressure or load shedding submits
// again after backoff, or after the refusal's Retry-After hint when that is
// longer — capped at maxBackoff, so a drain stays responsive.
const (
	backoff    = 50 * time.Millisecond
	maxBackoff = time.Second
)

// Options configures a Manager.
type Options struct {
	// Service is the job service members run on (required). A durable
	// service makes the campaigns durable too, in its data directory:
	// specs and member outcomes are journaled to DataDir/campaigns.jsonl,
	// member PGV fields are persisted under DataDir/campaigns/<id>/, and
	// Open resumes unfinished campaigns on boot, beside the member jobs the
	// service resumes.
	Service *service.Service
	// Logger receives campaign lifecycle events. Nil discards them.
	Logger *slog.Logger
	// Tracer, when set, records campaign lifecycles as Chrome trace events
	// on their own process track (pid 1, one thread per campaign).
	Tracer *telemetry.Tracer
}

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
	userCanceled bool
	recovered    bool
	jobs         []string      // member index -> job ID ("" before submission)
	phases       []memberPhase // written by take alone
	memberErrs   []string
	created      time.Time
	finished     time.Time
}

// Manager orchestrates campaigns over a job service.
type Manager struct {
	svc    *service.Service
	dir    string // the service's data directory; "" = campaigns live in memory
	clk    clock.Clock
	log    *slog.Logger
	tracer *telemetry.Tracer
	wal    *wal.Log[campaignEvent] // nil without a data directory
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

// Open builds a Manager. On a durable service it first recovers: the
// campaign journal is replayed, unfinished campaigns re-fold their persisted
// member fields in member-index order (bit-identical to the first life) and
// resume their remaining members — re-attaching to member jobs the job
// service itself recovered, resubmitting the rest.
func Open(opts Options) (*Manager, error) { return open(opts, clock.Wall{}) }

// open is Open on a given clock.
func open(opts Options, clk clock.Clock) (*Manager, error) {
	if opts.Service == nil {
		return nil, fmt.Errorf("ensemble: Options.Service is required")
	}
	if opts.Logger == nil {
		opts.Logger = telemetry.Discard()
	}
	m := &Manager{
		svc:       opts.Service,
		dir:       opts.Service.DataDir(),
		clk:       clk,
		log:       opts.Logger,
		tracer:    opts.Tracer,
		reg:       telemetry.NewRegistry(),
		campaigns: make(map[string]*campaign),
	}
	m.declareMetrics()
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	m.tracer.NameProcess(tracePID, "ensemble")

	if m.dir == "" {
		return m, nil
	}
	if err := os.MkdirAll(filepath.Join(m.dir, "campaigns"), 0o755); err != nil {
		return nil, err
	}
	var live []*campaignRecord
	var err error
	m.wal, err = wal.Recover(filepath.Join(m.dir, "campaigns.jsonl"), func(events []campaignEvent) []campaignEvent {
		recs := replayJournal(events)
		for _, rec := range recs {
			m.nextID = max(m.nextID, campSeq(rec.id))
			if rec.live() {
				live = append(live, rec)
			}
		}
		return compactedJournal(recs, clk.Now())
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
	if m.dir == "" {
		return ""
	}
	return filepath.Join(m.dir, "campaigns", id)
}

// logEvent appends to the campaign journal when the manager is durable.
func (m *Manager) logEvent(ev campaignEvent) {
	if m.wal == nil {
		return
	}
	ev.Time = m.clk.Now()
	if err := m.wal.Append(ev); err != nil {
		// the caller has already acted on the event; what is lost is its
		// durable record, so the next boot may redo or forget this step
		m.met.journalErrors.Add(1)
		m.log.Error("campaign journal append failed", "campaign", ev.Campaign, "event", ev.Event, "error", err.Error())
		return
	}
	m.met.journalEvents.Add(1)
}

// newCampaign builds the in-memory record for a normalized spec. The
// aggregate takes member 0's surface grid, which every member shares
// (normalized refuses variations of nx/ny).
func (m *Manager) newCampaign(id string, spec CampaignSpec) (*campaign, error) {
	members := spec.Expand()
	first, err := scenario.Build(members[0].Scenario, members[0].Overrides)
	if err != nil {
		return nil, fmt.Errorf("ensemble: member 0 does not build: %w", err)
	}
	c := &campaign{
		id:         id,
		spec:       spec,
		members:    members,
		agg:        newAggregator(m.stateDir(id), first.Dims.Nx, first.Dims.Ny, spec.Thresholds, spec.Percentiles),
		done:       make(chan struct{}),
		state:      StateRunning,
		jobs:       make([]string, len(members)),
		phases:     make([]memberPhase, len(members)),
		memberErrs: make([]string, len(members)),
		created:    m.clk.Now(),
	}
	c.ctx, c.cancel = context.WithCancel(m.baseCtx)
	return c, nil
}

// recoverCampaign rebuilds a live campaign from its journal record: done
// members re-fold from their persisted fields (strictly ascending index,
// so the Welford sequence matches the first life bit for bit) and skipped
// members advance the fold, both along the edges they took in the first
// life, replayed; everything else is left pending for the scheduler — which
// will re-attach to jobs the service still knows.
func (m *Manager) recoverCampaign(rec *campaignRecord) error {
	c, err := m.newCampaign(rec.id, *rec.spec)
	if err != nil {
		return fmt.Errorf("ensemble: recovering %s: %w", rec.id, err)
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
		f, err := c.agg.load(idx)
		if err != nil {
			// field lost or torn: re-run the member (deterministic, so the
			// re-folded aggregate is unchanged)
			m.log.Warn("member field unreadable, re-running", "campaign", c.id, "member", idx, "error", err.Error())
			c.jobs[idx] = ""
			continue
		}
		if err := c.agg.add(idx, f); err != nil {
			return fmt.Errorf("ensemble: refolding %s member %d: %w", c.id, idx, err)
		}
		m.take(c, idx, change{from: memberPending, to: memberRunning, job: c.jobs[idx], replay: true})
		m.take(c, idx, change{from: memberRunning, to: memberDone, replay: true})
	}
	for _, idx := range sortedKeys(rec.skipped) {
		if idx >= 0 && idx < len(c.phases) {
			m.take(c, idx, change{from: memberPending, to: memberSkipped, err: errors.New(rec.skipped[idx]), replay: true})
		}
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
	norm, err := spec.normalized()
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

// runCampaign drives every pending member through the job service with
// bounded concurrency, then settles the campaign's terminal state.
func (m *Manager) runCampaign(c *campaign) {
	defer m.wg.Done()
	start := m.clk.Now()
	sem := make(chan struct{}, c.spec.MaxConcurrent)
	var wg sync.WaitGroup
launch:
	for idx := range c.members {
		c.mu.Lock()
		phase := c.phases[idx]
		c.mu.Unlock()
		if phase != memberPending {
			continue // re-folded or skipped by recovery
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

// runMember takes one pending member as far as it goes: to running once it
// has a job, then to done with its field folded, or to skipped. A campaign
// that ends or a manager that drains first leaves it pending — parked — and
// a canceled campaign's member cancels its own job and waits for it to end,
// so no member job outlives its canceled campaign.
func (m *Manager) runMember(c *campaign, idx int) {
	job, attached, err := m.submit(c, idx)
	if err != nil {
		m.take(c, idx, change{from: memberPending, to: memberSkipped, err: err})
		return
	}
	if job == "" {
		return // parked before it had a job
	}
	m.take(c, idx, change{from: memberPending, to: memberRunning, job: job, replay: attached})

	st, err := m.svc.Wait(c.ctx, job)
	if err != nil {
		c.mu.Lock()
		canceled := c.userCanceled
		c.mu.Unlock()
		if canceled {
			m.svc.Cancel(job)
			m.svc.Wait(m.baseCtx, job)
		}
		m.take(c, idx, change{from: memberRunning, to: memberPending})
		return
	}
	pgv, err := m.field(job, st)
	unsaved := false
	if err == nil {
		// write-ahead for the aggregate: the field is on disk before the
		// member_done event, so a journaled member always re-folds
		if perr := c.agg.persist(idx, pgv); perr != nil {
			// fold in memory anyway; without the journal event the next boot
			// simply re-runs this member (deterministically, same bits)
			m.log.Warn("member field persist failed", "campaign", c.id, "member", idx, "error", perr.Error())
			unsaved = true
		}
		err = c.agg.add(idx, pgv)
	}
	if err != nil {
		m.take(c, idx, change{from: memberRunning, to: memberSkipped, err: err})
		return
	}
	m.take(c, idx, change{from: memberRunning, to: memberDone, unsaved: unsaved})
}

// submit finds member idx its job: the one the campaign recorded, if the
// service still knows it (attached: a durable service requeues unfinished
// jobs under their original IDs), else a fresh batch-class submission that
// waits out backpressure. It returns no job and no error when the campaign
// ends or the manager drains first, and an error for a member that can never
// run.
func (m *Manager) submit(c *campaign, idx int) (job string, attached bool, err error) {
	c.mu.Lock()
	job = c.jobs[idx]
	c.mu.Unlock()
	if job != "" {
		if _, err := m.svc.Status(job); err == nil {
			return job, true, nil
		}
	}
	// campaign members are batch-class work: the admission scheduler's
	// weighted dispatch keeps a sweep from starving interactive jobs
	spec := c.members[idx]
	spec.Class = admission.ClassBatch
	req, err := spec.Request()
	if err != nil {
		return "", false, err
	}
	for !m.draining() {
		job, err := m.svc.Submit(req)
		switch {
		case err == nil:
			return job, false, nil
		case errors.Is(err, service.ErrClosed):
			return "", false, nil
		case !errors.Is(err, service.ErrQueueFull) && !errors.Is(err, admission.ErrRateLimited) &&
			!errors.Is(err, admission.ErrShedding):
			// includes admission.ErrNeverFits: a member bigger than the
			// memory budget can never run on this daemon — skip it, the
			// campaign completes on the members that fit
			return "", false, err
		}
		// backpressure or load shedding: the campaign yields rather than
		// spinning, honoring the rejection's Retry-After hint
		wait := backoff
		if hint, ok := admission.RetryAfter(err); ok {
			wait = min(max(hint, wait), maxBackoff)
		}
		if !m.sleep(c.ctx, wait) {
			return "", false, nil
		}
	}
	return "", false, nil
}

// sleep waits d on the manager's clock and reports whether it did; false
// when ctx ended first.
func (m *Manager) sleep(ctx context.Context, d time.Duration) bool {
	due := make(chan struct{})
	stop := m.clk.AfterFunc(d, func() { close(due) })
	select {
	case <-due:
		return true
	case <-ctx.Done():
		stop()
		return false
	}
}

// field is the surface PGV field of a member job that has ended, or why the
// member has none: failed and canceled jobs drop from the aggregate.
func (m *Manager) field(job string, st service.Status) (*service.SurfaceField, error) {
	if st.State != service.StateDone {
		return nil, errors.New(cmp.Or(st.Error, string(st.State)))
	}
	res, err := m.svc.Result(job)
	if err != nil {
		return nil, err
	}
	if res.PGV == nil {
		return nil, errors.New("member result has no surface PGV field")
	}
	return res.PGV, nil
}

// finishCampaign settles the terminal state once every member goroutine
// has returned. Members left pending by a shutdown keep the campaign
// non-terminal: nothing terminal is journaled, so the next boot resumes.
func (m *Manager) finishCampaign(c *campaign, started time.Time) {
	st := m.statusOf(c) // no member goroutine is left to move a phase
	unresolved, skipped := st.Pending+st.Running, st.Failed
	var state State
	c.mu.Lock()
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
	default:
		state = StateDone
	}
	c.state = state
	c.finished = m.clk.Now()
	c.mu.Unlock()
	// journaled before a waiter hears of it: Wait returns a finished campaign
	// whose end is on disk, or counted and logged as lost
	m.logEvent(campaignEvent{Event: string(state), Campaign: c.id})
	close(c.done)
	m.met.finished[state].Add(1)
	m.tracer.Span(tracePID, campSeq(c.id), "campaign", "running", started, c.finished.Sub(started),
		map[string]any{"state": string(state), "members": st.Members})
	m.log.Info("campaign finished", "campaign", c.id, "state", string(state),
		"members", st.Members, "folded", c.agg.folded(), "skipped", skipped)

	if dir := m.stateDir(c.id); dir != "" {
		agg := c.agg.snapshot()
		cm := manifest.CampaignManifest{
			ID: c.id, Name: c.spec.Name, Scenario: c.spec.Scenario, State: string(state),
			Members: st.Members, Folded: agg.Folded, Skipped: skipped, MemberJobs: c.jobs,
			Thresholds: agg.Thresholds, MeanPGVMax: agg.MeanPGVMax, MeanIntensityMax: agg.MeanIntensityMax,
			Created: c.created, Finished: c.finished,
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

// lookup finds a campaign by ID.
func (m *Manager) lookup(id string) (*campaign, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.campaigns[id]
	return c, ok
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
	if i := slices.IndexFunc(c.memberErrs, func(e string) bool { return e != "" }); c.state == StateFailed && i >= 0 {
		st.Error = fmt.Sprintf("ensemble: member %d failed: %s", i, c.memberErrs[i])
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
		case memberRunning:
			st.Running++
			ms.State = "running"
			if js, err := m.svc.Status(job); err == nil {
				ms.State = string(js.State)
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
	c, ok := m.lookup(id)
	if !ok {
		return Status{}, ErrUnknownCampaign
	}
	return m.statusOf(c), nil
}

// List reports every known campaign, newest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	cs := make([]*campaign, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		cs = append(cs, c)
	}
	m.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].id > cs[j].id })
	out := make([]Status, len(cs))
	for i, c := range cs {
		out[i] = m.statusOf(c) // outside m.mu: it asks the service about running members
	}
	return out
}

// Aggregate returns the campaign's current statistical hazard product.
// It is available while the campaign runs (over the members folded so
// far); before any member has folded the maps are empty but the metadata
// is valid.
func (m *Manager) Aggregate(id string) (*Aggregate, error) {
	c, ok := m.lookup(id)
	if !ok {
		return nil, ErrUnknownCampaign
	}
	agg, st := c.agg.snapshot(), m.statusOf(c)
	agg.Campaign, agg.Scenario, agg.State, agg.Members, agg.Skipped = st.ID, st.Scenario, st.State, st.Members, st.Failed
	return agg, nil
}

// Cancel requests cancellation of a campaign: pending members stop being
// scheduled, and each member with a job cancels it and waits for it to end.
// Cancel reports whether the campaign exists; the campaign reaches
// StateCanceled once its members wind down, when no member job is left
// running.
func (m *Manager) Cancel(id string) bool {
	c, ok := m.lookup(id)
	if !ok {
		return false
	}
	c.mu.Lock()
	if c.state.Terminal() {
		c.mu.Unlock()
		return true
	}
	c.userCanceled = true
	c.mu.Unlock()
	c.cancel()
	m.log.Warn("campaign canceled", "campaign", id)
	return true
}

// Wait blocks until the campaign's runner settles (terminal state, or
// parked by a shutdown) or the context ends.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	c, ok := m.lookup(id)
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

// gauges counts live campaigns and their running and pending members.
func (m *Manager) gauges() (running, inflight, pending int64) {
	for _, st := range m.List() {
		if !st.State.Terminal() {
			running++
			inflight += int64(st.Running)
			pending += int64(st.Pending)
		}
	}
	return
}
