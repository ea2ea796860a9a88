GO ?= go

.PHONY: all build check check-bce check-portable check-one check-surface fmt-check vet test race bench loc profile repro fuzz clean serve-smoke ensemble-smoke crash-test chaos-test overload-test

all: build check test

build:
	$(GO) build ./...

# static analysis, formatting, the bounds-check pin on the sweep kernels, plus
# the race-sensitive engine packages (the simulated-MPI world, the
# step-pipeline drivers, the job service worker pool, the ensemble campaign
# scheduler, the durability layers — the write-ahead log, the checkpoint
# write lane and its codec — and the telemetry collectors), the medium's
# build-once reciprocal, the set-up's slabs (fd's wavefield, medium and
# attenuation constructors, grid's Slabs) and the models they sample at once
# under the race detector — where every row is the Go
# one (the assembly plane entries of fd, plasticity and grid are not built
# under -race), so the row, plane and both-paths tests there also run each
# plane function's Go fallback and prove that build computes the same bits;
# then the job service's and the campaign manager's tests twenty
# times in shuffled order, which is what a test that depends on wall time or
# on its neighbours does not survive; last, every cell of the engine's mode
# matrix (the tier-1 run takes every seventh), and the explosion against its
# full-space solution at 100 m too, with the fitted order (the tier-1 run
# takes 200 m alone). The race run skips the explosion: a fifth of its time
# for two workers that TestModeMatrix's tiled cells already race
check: vet fmt-check check-bce check-portable check-one check-surface overload-test
	$(GO) test -race -skip TestExplosionMatchesFullSpaceSolution ./internal/core/... ./internal/mpi/... \
		./internal/service/... ./internal/ensemble/ ./internal/wal/ ./internal/checkpoint/ ./internal/lz4/ \
		./internal/faultinject/ ./internal/telemetry/ ./internal/admission/ ./internal/model/
	$(GO) test -race ./internal/fd/ -run 'Reciprocal|Row|Plane|SweepKernels|KernelPaths|Sponge|SetUp|SamplingPass|MediumFrom|Wavefield'
	$(GO) test -race ./internal/plasticity/ ./internal/grid/ -run 'Row|Plane|Lane|YieldSurface|MaxAbs|FlatIndex|Ranked|Workers|Slabs|NewFields'
	$(GO) test -shuffle=on -count=20 ./internal/service/ ./internal/ensemble/
	$(GO) test -count=1 ./internal/core/ -run TestModeMatrix -matrix.full
	$(GO) test -count=1 ./internal/core/ -run TestExplosionMatchesFullSpaceSolution -explosion.full

# the build without the assembly rows must not rot: cross-compile everything
# for an architecture that has none and vet the packages that hold rows there
# (works offline; `go vet` on amd64 runs asmdecl over the .s files' frames)
check-portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/cpu/... ./internal/fd ./internal/plasticity ./internal/grid

# the sweep kernels (velocity, stress, sponge, attenuation, plasticity, the
# divergence scan) must keep their inner loops free of index bounds checks:
# compile their packages with the SSA bounds-check report and fail on any
# "Found IsInBounds" in a file that holds a row loop or a plane loop or
# hands planes to the assembly, naming its line. "Found IsSliceInBounds" is
# the per-plane and per-column operand slicing — in the *_amd64.go files the
# very checks that license the pointers the assembly gets, one per operand
# per plane — and is expected; both counts are printed per file. Compiled
# for amd64 whatever the host, so the file list means the same everywhere.
BCE_FILES = internal/fd/sweep.go internal/fd/sweep_amd64.go \
	internal/plasticity/sweep.go internal/plasticity/sweep_amd64.go \
	internal/grid/maxabs_amd64.go
check-bce:
	@out=$$(GOARCH=amd64 $(GO) build -gcflags=-d=ssa/check_bce/debug=1 ./internal/fd ./internal/plasticity ./internal/grid 2>&1) \
		|| { echo "$$out"; exit 1; }; \
	bad=0; \
	for f in $(BCE_FILES); do \
		idx=$$(echo "$$out" | grep "^$$f:" | grep -c "Found IsInBounds"); \
		slc=$$(echo "$$out" | grep "^$$f:" | grep -c "Found IsSliceInBounds"); \
		echo "check-bce: $$f: $$idx IsInBounds, $$slc IsSliceInBounds"; \
		if [ "$$idx" != 0 ]; then echo "$$out" | grep "^$$f:" | grep "Found IsInBounds"; bad=1; fi; \
		if [ "$$slc" = 0 ]; then echo "check-bce: no report for $$f (renamed? report format changed?)"; bad=1; fi; \
	done; \
	exit $$bad

# one of each: the journals' durability lives in internal/wal alone (no fsync
# in the two packages that keep a journal), and metrics live in
# internal/telemetry's registry alone (expvar only publishes its JSON view,
# from cmd/quaked); any line printed is a failure. And the engine spells its
# stage sequence, its schedule and its step loop once each: non-test
# internal/core holds at most one call that posts the velocity halos, one
# return map and one stress-chain call (s.stressChain) — the walk's — and no
# identifier twoPass: every block, tile and
# interior/shell pass is the one walk, two-pass is its one-slab geometry; it
# calls each host kernel at most once, the walk itself (fd.UpdateVelocityRegion
# in stripWalk, fd.UpdateStressRegion in stressChain), and pipeline.go holds no
# Backend interface; no non-test file of it imports the machine model
# (cgexec, sunway, ldm, perfmodel): the simulated core group's tally is a
# function of the block, no part of the step; and it declares at most
# one walk-geometry test seam (a package-level variable of type int or
# geometry). And nothing sweeps a block after the walk: no whole-block
# max-|v| scan (MaxAbsVelocity() call), no whole-surface PGV update
# (pgv.Update() call) and no whole-frame traction imaging
# (ImageTractionCols(s.WF, -fd.Halo, ...)) — the walk takes the max and the
# peaks behind the sponge, compressed storage's round trip included, and
# images each owned column just before its velocity update; and every
# storage walks one plan: planWalks reads no s.comp. And the job service and the campaign manager
# spell their lifecycles and their clock once each: non-test internal/service
# assigns a job's state in one place (lifecycle.go's move), non-test
# internal/ensemble writes a member's phase in one place (lifecycle.go's
# take), and neither asks the time package for the time (no time.Now, After,
# AfterFunc, NewTicker, NewTimer, Since or Sleep call): internal/clock is
# their one clock. And there is one ensemble path: non-test cmd/ builds no
# seismo.FieldStats or OrderedFold of its own (hazard -ensemble runs an
# in-memory campaign and prints its aggregate). And each sweep kernel has one assembly entry,
# entered once per plane: the .s files of fd, plasticity and grid declare
# exactly the seven *PlaneAVX2 entries — velocity, stress diagonal, stress
# shear, attenuation, the sponge's scale, the yield check, the max-abs scan —
# and no Go file there declares a per-row entry or wrapper (*RowAVX2,
# *RowVec). And set-up passes over the medium once: non-test internal/core
# reads no medium row, because the CFL bound comes from
# fd.NewMediumFromModel's sampling pass. And the walk's strips are its only
# parallel units: non-test internal/core cuts no tiles (no SplitN(, fan(,
# minus( or inset( call, no pass part( method) — workers walk the strips as
# a wavefront — and internal/fd declares no whole-block SLS snapshot
# (SLS) Before(): the chain takes each region's stresses as it goes. And a
# run's codecs are calibrated in one place, inside the engine: non-test Go
# outside internal/core and internal/compress names no compress.Stats and
# calls no CollectStats( — a caller names the codec (Config.Compression),
# New and RunParallelCtx calibrate it. And compressed storage keeps one
# copy: non-test internal/core names no compress.Field and calls
# EncodeSlice( and DecodeSlice( only from roundTrip, which passes a float32
# field through its codec in place. And every program is run or shipped: no
# package main outside cmd/ and benchmark/ (an example is an Example
# function, which go test runs). And a run's accounting is derived, not
# counted: non-test internal/core names no countKernels or AddCounters and
# its Perf declares no field ending in Points (a step's work follows from
# the configuration, Config.perf). And every decomposition takes its dumps
# one way: non-test internal/core holds exactly one Checkpoint.MaybeSave(
# call (block 0's, in Simulator.checkpoint, the whole-domain block's too),
# and no non-test file under internal/ names MaybeSaveAux or declares a
# Bcast (a dump's status reaches the blocks through peers.agree). And the
# engine's fixed behaviour has no knob: no non-test Go under internal/ or
# cmd/ names HaloCRC, TraceTID or DivergenceLimit or declares a -halo-crc or
# -divergence-limit flag (every halo frame is sealed; divergence has one
# bound), and non-test internal/core names no telemetry.Tracer (a job's
# step spans and fault instants are the service's, drawn from the observer
# and the fault hook). And overload is decided once, in the service: non-test
# Go under cmd/ and internal/ensemble names none of the retryable refusals
# (service.ErrQueueFull, admission.ErrRateLimited, admission.ErrShedding) and
# no RetryHint — a caller reads the refusal's admission.RetryAfter — no Go
# file names ProbeAborted (the breaker is asked last, so its probe cannot be
# lost), and non-test internal/service moves the queued, running and
# queue-high-water gauges only in lifecycle.go's move, with the states they
# count. And the daemon decides how a job runs: quaked declares no -queue,
# -job-timeout or -max-attempts flag, no non-test Go under internal/ or cmd/
# names DefaultTimeout or MaxAttempts or sets Options.QueueSize (the queue
# holds 4 jobs per worker, a job's deadline is its own timeout and a job
# gets 3 attempts with -data, 1 without), internal/scenario names no
# Overlap (no request picks the halo schedule), and non-test internal/service
# assigns a job's Tiles, Overlap, StepDeadline and MaxFaultRetries in exactly
# one place each (prepare, from the daemon alone)
KERNEL_ENTRIES = 7
check-one:
	@! grep -n '\.Sync()' internal/service/*.go internal/ensemble/*.go
	@! grep -rlx --include='*.go' 'package main' . | grep -vE '^\./(cmd|benchmark)/'
	@! grep -rl --include='*.go' '"expvar"' . | grep -v '^\./cmd/quaked/'
	@for pat in 'ex\.StartVelocity(' 'plasticity\.ApplyRegion(' 's\.stressChain('; do \
		n=$$(grep -n "$$pat" internal/core/*.go | grep -v '_test\.go:' | wc -l); \
		if [ "$$n" -gt 1 ]; then echo "check-one: internal/core holds $$n calls of $$pat, want at most 1:"; \
			grep -n "$$pat" internal/core/*.go | grep -v '_test\.go:'; exit 1; fi; \
	done
	@! grep -nw 'twoPass' internal/core/*.go | grep -v '_test\.go:'
	@for k in UpdateVelocityRegion:stripWalk UpdateStressRegion:stressChain; do \
		in=$$(awk -v p="fd[.]$${k%:*}[(]" '/^func /{f=$$0} $$0 ~ p {print FILENAME": "f}' \
			$$(ls internal/core/*.go | grep -v '_test\.go$$')); \
		if [ "$$(echo "$$in" | grep -c .)" -gt 1 ] || { [ -n "$$in" ] && ! echo "$$in" | grep -q ") $${k#*:}("; }; then \
			echo "check-one: internal/core calls fd.$${k%:*} other than once from $${k#*:}:"; echo "$$in"; exit 1; fi; \
	done
	@! grep -n 'Backend interface' internal/core/pipeline.go
	@! grep -nE '"swquake/internal/(cgexec|sunway|ldm|perfmodel)"' internal/core/*.go | grep -v '_test\.go:'
	@! grep -nF -e 'MaxAbsVelocity(' -e 'pgv.Update(' $$(ls internal/core/*.go | grep -v '_test\.go$$')
	@in=$$(awk '/^func /{f=$$0} /s\.comp/ && f ~ /\) planWalks\(/ {print FILENAME":"FNR": "$$0}' \
		$$(ls internal/core/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$in" ]; then echo "check-one: planWalks reads compressed storage (every storage walks one plan):"; \
		echo "$$in"; exit 1; fi
	@! grep -nE 'ImageTractionCols\(s\.WF, -fd\.Halo' internal/core/*.go | grep -v '_test\.go:'
	@! grep -nw 'compress\.Field' internal/core/*.go | grep -v '_test\.go:'
	@! grep -nwE 'countKernels|AddCounters' internal/core/*.go | grep -v '_test\.go:'
	@! awk '/^type Perf struct/{p=1; next} p && /^}/{p=0} p && /^[ \t]*[A-Za-z_][A-Za-z0-9_]*Points[ \t,]/ {print FILENAME":"FNR": "$$0}' \
		$$(ls internal/core/*.go | grep -v '_test\.go$$') | grep .
	@in=$$(awk '/^func /{f=$$0} /(Encode|Decode)Slice\(/ {print FILENAME":"FNR": "f}' \
		$$(ls internal/core/*.go | grep -v '_test\.go$$') | grep -v ') roundTrip('); \
	if [ -n "$$in" ]; then echo "check-one: internal/core encodes or decodes outside roundTrip:"; \
		echo "$$in"; exit 1; fi
	@n=$$(grep -nE '^var [A-Za-z_]+ (int|geometry)$$' internal/core/*.go | grep -v '_test\.go:' | wc -l); \
	if [ "$$n" -gt 1 ]; then echo "check-one: internal/core declares $$n walk-geometry test seams, want at most 1:"; \
		grep -nE '^var [A-Za-z_]+ (int|geometry)$$' internal/core/*.go | grep -v '_test\.go:'; exit 1; fi
	@n=$$(grep -nE '\.state(, [a-z.]+)* =[^=]' internal/service/*.go | grep -v '_test\.go:' | wc -l); \
	if [ "$$n" -ne 1 ]; then echo "check-one: internal/service assigns a job's state in $$n places, want exactly 1:"; \
		grep -nE '\.state(, [a-z.]+)* =[^=]' internal/service/*.go | grep -v '_test\.go:'; exit 1; fi
	@in=$$(awk '/^func /{f=$$0} /^}/{f=""} /runtime\.GOMAXPROCS\(/ {print FILENAME":"FNR": "(f ? f : $$0)}' \
		$$(ls internal/core/*.go | grep -v '_test\.go$$') | grep -v 'func effectiveTiles('); \
	if [ -n "$$in" ]; then echo "check-one: internal/core reads GOMAXPROCS outside effectiveTiles (the walk's one derivation):"; \
		echo "$$in"; exit 1; fi
	@for f in Tiles Overlap StepDeadline MaxFaultRetries; do \
		pat="\\.$$f\\>(, *[A-Za-z_.]+)* *=[^=]|, *[A-Za-z_.]+\\.$$f *=[^=]|\\<$$f:"; \
		n=$$(grep -nE "$$pat" internal/service/*.go | grep -v '_test\.go:' | wc -l); \
		if [ "$$n" -ne 1 ]; then echo "check-one: internal/service assigns a job's $$f in $$n places, want exactly 1 (prepare's, from the daemon):"; \
			grep -nE "$$pat" internal/service/*.go | grep -v '_test\.go:'; exit 1; fi; \
	done
	@! grep -nE '\("(queue|job-timeout|max-attempts)",' cmd/quaked/*.go | grep -v '_test\.go:'
	@! grep -rnE --include='*.go' '\<(DefaultTimeout|MaxAttempts)\>|\<QueueSize *:|\.QueueSize *=[^=]' internal/ cmd/ | grep -v '_test\.go:'
	@! grep -nw 'Overlap' internal/scenario/*.go | grep -v '_test\.go:'
	@! grep -nE 'time\.(Now|After|AfterFunc|NewTicker|NewTimer|Since|Sleep)\(' internal/service/*.go internal/ensemble/*.go \
		| grep -v '_test\.go:'
	@n=$$(grep -nE '\.phases\[[^]]+\] =[^=]' internal/ensemble/*.go | grep -v '_test\.go:' | wc -l); \
	if [ "$$n" -ne 1 ]; then echo "check-one: internal/ensemble writes a member's phase in $$n places, want exactly 1:"; \
		grep -nE '\.phases\[[^]]+\] =[^=]' internal/ensemble/*.go | grep -v '_test\.go:'; exit 1; fi
	@! grep -rnE --include='*.go' 'seismo\.NewFieldStats\(|NewOrderedFold\(' cmd/ | grep -v '_test\.go:'
	@! grep -nE 'func [A-Za-z0-9_]*Row(AVX2|Vec)\(' internal/fd/*.go internal/plasticity/*.go internal/grid/*.go
	@! grep -nE 'Med\.(Lam|Mu|Rho)\.Row\(' internal/core/*.go | grep -v '_test\.go:'
	@! grep -nE '\<(SplitN|fan|minus|inset)\(|\) part\(' internal/core/*.go | grep -v '_test\.go:'
	@! grep -n 'SLS) Before(' internal/fd/*.go | grep -v '_test\.go:'
	@! grep -rnE --include='*.go' 'compress\.Stats\b|CollectStats\(' . | grep -v '_test\.go:' \
		| grep -vE '^\./internal/(core|compress)/'
	@n=$$(grep -n 'Checkpoint\.MaybeSave(' internal/core/*.go | grep -v '_test\.go:' | wc -l); \
	if [ "$$n" -ne 1 ]; then echo "check-one: internal/core holds $$n Checkpoint.MaybeSave( calls, want exactly 1:"; \
		grep -n 'Checkpoint\.MaybeSave(' internal/core/*.go | grep -v '_test\.go:'; exit 1; fi
	@! grep -rnE --include='*.go' 'MaybeSaveAux|func (\([^)]*\) )?Bcast\(' internal/ | grep -v '_test\.go:'
	@! grep -rnE --include='*.go' 'HaloCRC|TraceTID|DivergenceLimit|"(halo-crc|divergence-limit)"' internal/ cmd/ | grep -v '_test\.go:'
	@! grep -nF 'telemetry.Tracer' internal/core/*.go | grep -v '_test\.go:'
	@! grep -rnE --include='*.go' 'service\.ErrQueueFull|admission\.Err(RateLimited|Shedding)|RetryHint' cmd/ internal/ensemble/ \
		| grep -v '_test\.go:'
	@! grep -rn --include='*.go' 'ProbeAborted' .
	@in=$$(awk '/^func /{f=$$0} /\.(queued|running|queueHW)\.(Add|Set|RaiseTo)\(/ && f !~ /\) move\(/ {print FILENAME":"FNR": "$$0}' \
		$$(ls internal/service/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$in" ]; then echo "check-one: internal/service moves a state gauge outside move (gauges move with the state):"; \
		echo "$$in"; exit 1; fi
	@entries=$$(grep -h '^TEXT ' internal/fd/*.s internal/plasticity/*.s internal/grid/*.s); \
	n=$$(echo "$$entries" | grep -c 'PlaneAVX2(SB)'); all=$$(echo "$$entries" | grep -c .); \
	if [ "$$n" -ne $(KERNEL_ENTRIES) ] || [ "$$all" -ne $(KERNEL_ENTRIES) ]; then \
		echo "check-one: want exactly $(KERNEL_ENTRIES) assembly entries in fd, plasticity and grid, all *PlaneAVX2:"; \
		echo "$$entries"; exit 1; fi

# what no production caller reaches is not there: every function and method
# internal/ exports is referenced by a non-test file of the module (or reached
# through an interface), every exported field of an exported struct there is
# both written and read by one, and every exported type there is named by
# one — or listed with its reason in testdata/surface_allow.txt; a listed
# name that is gone or has gained a production use fails too
# (surface_test.go type-checks the module from source)
check-surface:
	$(GO) test -count=1 -run 'TestInternalSurfaceHasProductionCallers|TestInternalFieldsAndTypesHaveProductionUse' .

vet:
	$(GO) vet ./...

# every Go file is gofmt-clean; any name printed is a failure
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/mpi/ ./internal/checkpoint/ ./internal/lz4/ ./internal/core/

bench:
	$(GO) test -bench=. -benchmem ./...

# the repo's size as ROADMAP counts it: non-test Go lines, test Go lines,
# then assembly lines
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@find . -name '*_test.go' | xargs cat | wc -l
	@find . -name '*.s' | xargs cat | wc -l

# CPU-profile the serial step and print the top-10 hot functions
profile:
	$(GO) test -run=^$$ -bench BenchmarkStepTimingOverhead/instrumented \
		-benchtime 100x -cpuprofile cpu.prof ./internal/core/
	$(GO) tool pprof -top cpu.prof | head -16

# regenerate every table and figure of the paper
repro:
	$(GO) run ./cmd/bench -all

repro-full:
	$(GO) run ./cmd/bench -all -full

fuzz:
	$(GO) test -fuzz=FuzzDecompress -fuzztime 30s ./internal/lz4/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime 30s ./internal/lz4/
	$(GO) test -fuzz=FuzzLoad -fuzztime 30s ./internal/checkpoint/
	$(GO) test -fuzz=FuzzRead -fuzztime 30s ./internal/wal/
	$(GO) test -fuzz=FuzzLoadMemberField -fuzztime 30s ./internal/ensemble/
	$(GO) test -fuzz=FuzzJobSubmit -fuzztime 30s ./cmd/quaked/
	$(GO) test -fuzz=FuzzCampaignSpec -fuzztime 30s ./cmd/quaked/
	$(GO) test -fuzz=FuzzReadGridModel -fuzztime 30s ./internal/model/
	$(GO) test -fuzz=FuzzParseResumeAux -fuzztime 30s ./internal/core/

# the fault-tolerance suite under the race detector: failpoint-injected
# checkpoint corruption/write errors, worker panics, journal recovery, and
# the subprocess kill-and-restart drill in cmd/quaked
crash-test:
	$(GO) test -race ./internal/faultinject/ ./internal/atomicio/ ./internal/wal/
	$(GO) test -race ./internal/checkpoint/ -run 'Atomic|Corrupt|Truncat|Valid|GC|Aux|Lane'
	$(GO) test -race ./internal/service/ -run 'Journal|Recover|Retry|Panic|Drain|Cancel'
	$(GO) test -race ./cmd/quaked/ -run 'KillRestart|RestartSkips|Faults'

# the self-healing engine drills under the race detector: injected halo
# corruption, stalled ranks and rank panics recovered in-run with results
# bit-identical to an undisturbed run, plus the abort/watchdog machinery in
# internal/mpi (already part of `make check`'s race list) and the metrics
# that surface the faults
chaos-test:
	$(GO) test -race -count=1 ./internal/mpi/
	$(GO) test -race -count=1 ./internal/core/ -run \
		'TestDiverged|TestNaNVelocityIsDivergence|TestHaloCorruption|TestStalledRank|TestRankPanic|TestInRunRecovery|TestRecoveryWithout'
	$(GO) test -race -count=1 ./internal/service/ -run 'TestEngineFault|TestParallelDurable|TestTraceStepSpansSurviveARewind'
	$(GO) test -race -count=1 ./cmd/quakesim/ -run 'TestRunFaultDrill|TestRunRejectsBadFaultSpec'

# the overload drill under the race detector (DESIGN.md §3.8): a daemon at
# 5x its queue+worker capacity with a tight memory budget must shed with
# 429 + Retry-After, keep /healthz and cached results flowing, never exceed
# the budget (ledger high-water assertion), and finish every admitted job
# bit-identical to an unloaded run — plus the admission-layer drills in
# internal/service (budget serialization, breaker trip/probe, watchdog
# stall-retry, drain parking budget-blocked jobs) and the /readyz state walk
overload-test:
	$(GO) test -race ./cmd/quaked/ -run 'TestOverloadDrill|TestReadyzTransitions'
	$(GO) test -race ./internal/service/ -run \
		'TestMemBudget|TestNeverFits|TestSubmitRateLimited|TestBreakerTrip|TestProgressWatchdog|TestHealthDraining|TestDrainDeadlineParks|TestBatchYields'

# one job through the daemon's HTTP API: submit -> poll -> result -> metrics,
# a cache hit on resubmission, and the built binary booted, driven and
# rebooted on its data directory
serve-smoke:
	$(GO) test -count=1 ./cmd/quaked/ -run 'TestHTTPSubmitPollResult|TestHTTPCacheHitOnResubmit|TestRestartSkipsFinishedJobs'

# a seed-sweep campaign through the HTTP API: create -> poll -> aggregated
# hazard maps, bit-identical to the serial fold
ensemble-smoke:
	$(GO) test -count=1 ./cmd/quaked/ -run 'TestHTTPCampaignLifecycleBitIdentical'

clean:
	rm -f *.pgm *.swvm *.swq test_output.txt bench_output.txt \
		cpu.prof core.test
