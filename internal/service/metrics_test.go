package service

// jobMetrics is every counter and gauge of a Service in one struct, what
// the tests assert on; production callers read the registry's views and
// the few fields of Metrics.
type jobMetrics struct {
	Submitted, Queued, Running int64
	Done, Failed, Canceled     int64
	Retried, Recovered         int64
	WorkerPanics               int64
	// Rejected counts submissions refused by the admission layer (queue
	// full, over budget, rate limited, breaker open, draining);
	// ProgressStalls counts watchdog cancellations and BreakerTrips how
	// many times repeated infrastructure failures opened the breaker.
	Rejected, ProgressStalls, BreakerTrips int64
	// EngineFaults counts faults detected inside the parallel engine
	// (halo corruption, stalled ranks, rank panics); EngineRecoveries
	// counts the subset the engine healed in-run by rewinding to its
	// newest valid checkpoint — without burning a job-level attempt.
	EngineFaults, EngineRecoveries int64
	// JournalEvents counts journal appends that reached the disk,
	// JournalErrors the ones that failed.
	JournalEvents, JournalErrors    int64
	CheckpointsSaved                int64
	CacheHits, CacheMisses          int64
	StepsDone                       int64
	CacheEntries, Workers, QueueCap int
	// QueueDepth is the current number of queued jobs; QueueHighWater is
	// the deepest the queue has been since boot — the capacity-planning
	// number (how close did backpressure get to ErrQueueFull).
	QueueDepth, QueueHighWater int64
	// MemBudgetBytes is the configured admission budget (0 = unlimited);
	// MemReservedBytes the estimated working set of dispatched jobs right
	// now; MemHighWaterBytes the largest that reservation sum has been —
	// by construction never above MemBudgetBytes.
	MemBudgetBytes, MemReservedBytes, MemHighWaterBytes int64
}

func metricsOf(s *Service) jobMetrics {
	m, budget := &s.m, s.ledger.Snapshot()
	return jobMetrics{
		Rejected:          m.rejected.Total(),
		ProgressStalls:    m.progressStalls.Value(),
		BreakerTrips:      m.breakerTrips.Value(),
		MemBudgetBytes:    budget.TotalBytes,
		MemReservedBytes:  budget.ReservedBytes,
		MemHighWaterBytes: budget.HighWaterBytes,
		Submitted:         m.submitted.Value(),
		Queued:            m.queued.Value(),
		Running:           m.running.Value(),
		Done:              m.done.Value(),
		Failed:            m.failed.Value(),
		Canceled:          m.canceled.Value(),
		Retried:           m.retried.Value(),
		Recovered:         m.recovered.Value(),
		WorkerPanics:      m.workerPanics.Value(),
		EngineFaults:      m.engineFaults.Total(),
		EngineRecoveries:  m.engineRecoveries.Value(),
		JournalEvents:     m.journalEvents.Value(),
		JournalErrors:     m.journalErrors.Value(),
		CheckpointsSaved:  m.checkpointsSaved.Value(),
		CacheHits:         m.cacheHits.Value(),
		CacheMisses:       m.cacheMisses.Value(),
		StepsDone:         m.steps.Value(),
		CacheEntries:      s.cache.len(),
		Workers:           s.opts.Workers,
		QueueCap:          s.opts.QueueSize,
		QueueDepth:        m.queued.Value(),
		QueueHighWater:    m.queueHW.Value(),
	}
}
