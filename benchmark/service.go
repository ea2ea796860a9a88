package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"swquake/internal/ensemble"
	"swquake/internal/scenario"
	"swquake/internal/service"
)

// clients is how many closed-loop clients drive the job mix: one, which waits
// for each result before it sends the next job, as the scripts modelled do.
// The reference host has two CPUs; one solver goroutine in the daemon plus
// the polling client fill them, and a second client would measure how the
// host's scheduler shares them (the refused first form of this benchmark ran
// two and repeated no better than 30-40 %).
const clients = 1

// memberConcurrency is how many members the ensemble probe's campaign runs at
// a time: the daemon's default worker count on the two-CPU reference host.
const memberConcurrency = 2

// pollEvery is how often a client asks for a job's status.
const pollEvery = 2 * time.Millisecond

// hetAmplitude is the velocity heterogeneity every service job and campaign
// member carries, so that distinct seeds are distinct simulations.
const hetAmplitude = 0.05

// jobPlan is one job of the mix: its heterogeneity seed and, for a repeat,
// the index of the earlier job whose seed it reuses (-1 otherwise).
type jobPlan struct {
	seed     int64
	repeatOf int
}

// repeatWindow is how far back a repeat reaches, in distinct jobs: half the
// daemon's default result cache (64 entries, LRU), so that every repeat is a
// cache hit however long the mix is.
const repeatWindow = 32

// planJobs derives the job mix from the workload seed: distinct seeds, and
// every repeatEvery-th job a repeat of a random one of the last repeatWindow
// distinct jobs, skipping the newest, which a closed loop of several clients
// may not have finished.
func planJobs(seed int64, n, repeatEvery int) []jobPlan {
	rng := rand.New(rand.NewSource(seed))
	base := rng.Int63n(1<<40) + 1
	plan := make([]jobPlan, n)
	var distinct []int
	for i := range plan {
		plan[i] = jobPlan{seed: base + int64(i), repeatOf: -1}
		if repeatEvery > 0 && i%repeatEvery == repeatEvery-1 && len(distinct) > clients {
			hi := len(distinct) - clients
			lo := max(0, hi-repeatWindow)
			j := distinct[lo+rng.Intn(hi-lo)]
			plan[i] = jobPlan{seed: plan[j].seed, repeatOf: j}
			continue
		}
		distinct = append(distinct, i)
	}
	return plan
}

// closedLoop runs do(i) for every job of the plan from clients goroutines,
// each taking the next job only when its previous one returned. A repeat
// first waits for the job it repeats: it is a cache hit only once its
// original is done.
func closedLoop(plan []jobPlan, do func(i int)) {
	finished := make([]chan struct{}, len(plan))
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				if j := plan[i].repeatOf; j >= 0 {
					<-finished[j]
				}
				do(i)
				close(finished[i])
			}
		}()
	}
	wg.Wait()
}

// jobOutcome is what one job of the mix measured.
type jobOutcome struct {
	totalMS  float64 // POST sent -> result body read
	postMS   float64
	statusMS []float64
	resultMS float64
	bytes    int
	polls    int
	cacheHit bool
	digest   string
	stages   map[string]float64
	err      error
}

// runJob drives one job through the HTTP API: submit, poll, read the result.
func runJob(e *env, d *daemon, parent int, jp jobPlan, steps int) jobOutcome {
	var out jobOutcome
	req := map[string]any{"scenario": "quickstart", "overrides": scenario.Overrides{
		Steps: steps, HetAmplitude: hetAmplitude, Seed: jp.seed}}
	js := e.tr.begin("job", parent, e.op)
	defer e.tr.end(js)

	t0 := time.Now()
	sp := e.tr.begin("http.post", js, e.op)
	body, err := d.call(http.MethodPost, "/v1/jobs", req, http.StatusAccepted)
	e.tr.end(sp)
	out.postMS = time.Since(t0).Seconds() * 1e3
	if err != nil {
		out.err = err
		return out
	}
	var st service.Status
	if err := json.Unmarshal(body, &st); err != nil {
		out.err = fmt.Errorf("submit response: %w", err)
		return out
	}
	for !st.State.Terminal() {
		sp = e.tr.begin("poll.sleep", js, e.op)
		time.Sleep(pollEvery)
		e.tr.end(sp)
		t1 := time.Now()
		sp = e.tr.begin("http.status", js, e.op)
		body, err = d.call(http.MethodGet, "/v1/jobs/"+st.ID, nil, http.StatusOK)
		e.tr.end(sp)
		out.statusMS = append(out.statusMS, time.Since(t1).Seconds()*1e3)
		out.polls++
		if err != nil {
			out.err = err
			return out
		}
		if err := json.Unmarshal(body, &st); err != nil {
			out.err = fmt.Errorf("status response: %w", err)
			return out
		}
	}
	if st.State != service.StateDone {
		out.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return out
	}
	out.cacheHit = st.CacheHit
	t2 := time.Now()
	sp = e.tr.begin("http.result", js, e.op)
	body, err = d.call(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK)
	e.tr.end(sp)
	now := time.Now()
	out.resultMS = now.Sub(t2).Seconds() * 1e3
	out.totalMS = now.Sub(t0).Seconds() * 1e3
	if err != nil {
		out.err = err
		return out
	}
	out.bytes = len(body)
	out.digest, out.stages, out.err = checkResult(body)
	return out
}

// checkResult parses a result body, requires non-empty traces and returns
// the digest of the trace samples and the manifest's stage seconds.
func checkResult(body []byte) (string, map[string]float64, error) {
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return "", nil, fmt.Errorf("result body: %w", err)
	}
	if len(res.Traces) == 0 {
		return "", nil, fmt.Errorf("result has no traces")
	}
	h := sha256.New()
	for _, t := range res.Traces {
		if len(t.U) == 0 || len(t.V) == 0 || len(t.W) == 0 {
			return "", nil, fmt.Errorf("trace %q is empty", t.Name)
		}
		hashTrace(h, t.Name, t.U, t.V, t.W)
	}
	stages := map[string]float64{}
	for _, st := range res.Manifest.Stages {
		stages[st.Name] += st.Seconds
	}
	return hex.EncodeToString(h.Sum(nil)), stages, nil
}

// runJobMix starts a fresh durable daemon, runs n jobs of the seed's mix
// through it with one closed-loop client, stops the daemon and reports. It
// is the repetition of service-http-mix and, with another job count, the
// quaked layer probe.
func runJobMix(e *env, n int) (*repResult, error) {
	d, err := startDaemon(e)
	if err != nil {
		return nil, err
	}
	plan := planJobs(e.seed, n, e.sc.repeatEvery)
	outs := make([]jobOutcome, n)
	mix := e.tr.begin("jobs", e.parent, e.op)
	t0 := time.Now()
	closedLoop(plan, func(i int) { outs[i] = runJob(e, d, mix, plan[i], e.sc.jobSteps) })
	wall := time.Since(t0).Seconds()
	e.tr.end(mix)
	sp := e.tr.begin("quaked.stop", e.parent, e.op)
	rss := d.stop()
	e.tr.end(sp)

	r := &repResult{setupS: d.setupS, wallS: wall, rssMB: rss, attempted: n,
		stages: map[string]float64{}, layer: map[string][]float64{}}
	h := sha256.New()
	misses := 0
	for i, o := range outs {
		if o.err != nil {
			r.fail("job %d: %v", i, o.err)
			continue
		}
		h.Write([]byte(o.digest))
		r.layer["quaked.post_ms_p50"] = append(r.layer["quaked.post_ms_p50"], o.postMS)
		r.layer["quaked.status_ms_p50"] = append(r.layer["quaked.status_ms_p50"], o.statusMS...)
		r.layer["quaked.result_ms_p50"] = append(r.layer["quaked.result_ms_p50"], o.resultMS)
		r.layer["quaked.result_bytes"] = append(r.layer["quaked.result_bytes"], float64(o.bytes))
		if j := plan[i].repeatOf; j >= 0 {
			switch {
			case !o.cacheHit:
				r.fail("job %d repeats job %d but was not served from the cache", i, j)
			case outs[j].err == nil && o.digest != outs[j].digest:
				r.fail("cache-hit job %d returned traces that differ from job %d", i, j)
			}
			r.layer["quaked.cache_hit_ms_p50"] = append(r.layer["quaked.cache_hit_ms_p50"], o.totalMS)
			continue
		}
		misses++
		r.latMS = append(r.latMS, o.totalMS)
		r.layer["quaked.polls_per_job"] = append(r.layer["quaked.polls_per_job"], float64(o.polls))
		for name, s := range o.stages {
			r.stages[name] += s
		}
	}
	r.points = float64(misses) * float64(scenario.Quickstart().Dims.Points()) * float64(e.sc.jobSteps)
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

func serviceHTTPMix(e *env) (*repResult, error) { return runJobMix(e, e.sc.jobs) }

// runCampaign starts a fresh durable daemon, runs one seed-sweep campaign of
// the given size through the HTTP API, two members at a time, and reads its
// aggregate: the ensemble layer probe.
func runCampaign(e *env, members int) (*repResult, error) {
	// the member grid is the scenario's own; the daemon builds it the same way
	memberCfg, err := scenario.Build("tangshan", scenario.Overrides{Steps: e.sc.memberSteps})
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(e)
	if err != nil {
		return nil, err
	}
	r := &repResult{setupS: d.setupS, attempted: members,
		stages: map[string]float64{}, layer: map[string][]float64{}}
	defer func() {
		sp := e.tr.begin("quaked.stop", e.parent, e.op)
		r.rssMB = d.stop()
		e.tr.end(sp)
	}()

	spec := ensemble.CampaignSpec{Scenario: "tangshan",
		Base:          scenario.Overrides{Steps: e.sc.memberSteps},
		Seeds:         ensemble.SeedAxis{Base: e.seed, Count: members, HetAmplitude: hetAmplitude},
		MaxConcurrent: memberConcurrency}
	camp := e.tr.begin("campaign", e.parent, e.op)
	t0 := time.Now()
	sp := e.tr.begin("http.create", camp, e.op)
	body, err := d.call(http.MethodPost, "/v1/campaigns", spec, http.StatusAccepted)
	e.tr.end(sp)
	r.layer["ensemble.create_ms"] = []float64{time.Since(t0).Seconds() * 1e3}
	var st ensemble.Status
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	for err == nil && !st.State.Terminal() {
		sp = e.tr.begin("poll.sleep", camp, e.op)
		time.Sleep(5 * pollEvery)
		e.tr.end(sp)
		sp = e.tr.begin("http.status", camp, e.op)
		body, err = d.call(http.MethodGet, "/v1/campaigns/"+st.ID, nil, http.StatusOK)
		e.tr.end(sp)
		if err == nil {
			err = json.Unmarshal(body, &st)
		}
	}
	if err != nil {
		e.tr.end(camp)
		r.failed = members
		r.errs = append(r.errs, "campaign: "+err.Error())
		return r, nil
	}
	t1 := time.Now()
	sp = e.tr.begin("http.aggregate", camp, e.op)
	body, err = d.call(http.MethodGet, "/v1/campaigns/"+st.ID+"/aggregate", nil, http.StatusOK)
	e.tr.end(sp)
	now := time.Now()
	e.tr.end(camp)
	r.wallS = now.Sub(t0).Seconds()
	r.layer["ensemble.aggregate_get_ms"] = []float64{now.Sub(t1).Seconds() * 1e3}
	r.layer["ensemble.aggregate_bytes"] = []float64{float64(len(body))}

	var agg ensemble.Aggregate
	if err == nil {
		err = json.Unmarshal(body, &agg)
	}
	switch {
	case err != nil:
		r.fail("aggregate: %v", err)
	case st.State != ensemble.StateDone:
		r.fail("campaign ended %s: %s", st.State, st.Error)
	case agg.Folded != members || agg.Skipped != 0:
		r.fail("aggregate folded %d of %d members, skipped %d", agg.Folded, members, agg.Skipped)
	case agg.MeanPGVMax <= 0:
		r.fail("aggregate mean PGV maximum is %g", agg.MeanPGVMax)
	}
	r.digest = fmt.Sprintf("%016x", math.Float64bits(agg.MeanPGVMax))
	r.points = float64(members) * float64(memberCfg.Dims.Points()) * float64(e.sc.memberSteps)

	// after the clock stopped: each member's own run time and stage clock
	sp = e.tr.begin("members.read", e.parent, e.op)
	defer e.tr.end(sp)
	var memberS float64
	for _, m := range st.MemberJobs {
		var js service.Status
		body, err := d.call(http.MethodGet, "/v1/jobs/"+m.Job, nil, http.StatusOK)
		if err == nil {
			err = json.Unmarshal(body, &js)
		}
		if err != nil || js.State != service.StateDone {
			r.fail("member %d (%s): state %q, %v", m.Index, m.Job, js.State, err)
			continue
		}
		r.latMS = append(r.latMS, js.ElapsedS*1e3)
		memberS += js.ElapsedS
		if body, err = d.call(http.MethodGet, "/v1/jobs/"+m.Job+"/result", nil, http.StatusOK); err == nil {
			if _, stages, err := checkResult(body); err == nil {
				for name, s := range stages {
					r.stages[name] += s
				}
			}
		}
	}
	r.layer["ensemble.member_overhead_share"] = []float64{1 - memberS/(r.wallS*memberConcurrency)}
	r.layer["ensemble.members_per_s"] = []float64{float64(members) / r.wallS}
	return r, nil
}
