package sunway

// ComputeSeconds returns the time for ncpe CPEs to execute flops floating
// point operations at peak issue rate (the compute leg of the roofline).
func ComputeSeconds(flops int64, ncpe int) float64 {
	rate := float64(ncpe) * CPEFreqGHz * 1e9 * CPEFlopsPerCycle
	return float64(flops) / rate
}

// MPEComputeSeconds returns the time for the management core alone to
// execute flops operations (the baseline "MPE" version of Fig. 7).
func MPEComputeSeconds(flops float64) float64 {
	return flops / (MPEEffectiveGflops * 1e9)
}

// MPEMemorySeconds returns the time for the MPE's naive strided accesses to
// move the given bytes.
func MPEMemorySeconds(bytes float64) float64 {
	return bytes / (MPEEffectiveBWGBs * 1e9)
}

// RegCommSeconds returns the time for one CPE to fetch words 32-bit values
// from same-row/column neighbours via register communication (11 cycles
// each, fully serialized — the worst case; real code overlaps some of it).
func RegCommSeconds(words int64) float64 {
	return float64(words) * RegRemoteCycles / (CPEFreqGHz * 1e9)
}

// RegCommWordsPerCycle is the pipelined register-bus throughput: the
// row/column buses move 256-bit messages, i.e. eight 32-bit values per
// cycle once the 11-cycle pipeline is primed.
const RegCommWordsPerCycle = 8

// RegCommBulkSeconds returns the time for a streamed (pipelined) register
// transfer of words values: the startup latency plus bus-throughput time.
// This is the cost model for the paper's on-chip halo exchange, which
// moves whole halo columns between neighbouring CPEs.
func RegCommBulkSeconds(words int64) float64 {
	cycles := RegRemoteCycles + float64(words)/RegCommWordsPerCycle
	return cycles / (CPEFreqGHz * 1e9)
}

// LDMAccessSeconds returns the time for words LDM load/stores on one CPE.
func LDMAccessSeconds(words int64) float64 {
	return float64(words) * LDMCycles / (CPEFreqGHz * 1e9)
}
