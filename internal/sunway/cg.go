package sunway

import "fmt"

// LDM is a simple allocator over one CPE's 64 KB local data memory,
// enforcing the capacity constraint that drives the paper's blocking model
// (eq. 6: the working set of Wz*Wy*Wx points over Narrays must fit).
type LDM struct {
	used int
}

// Alloc reserves n bytes, failing when the 64 KB scratchpad would overflow.
func (l *LDM) Alloc(n int) error {
	if n < 0 {
		return fmt.Errorf("sunway: negative LDM allocation %d", n)
	}
	if l.used+n > LDMBytes {
		return fmt.Errorf("sunway: LDM overflow: %d + %d > %d", l.used, n, LDMBytes)
	}
	l.used += n
	return nil
}

// Free releases n bytes.
func (l *LDM) Free(n int) {
	l.used -= n
	if l.used < 0 {
		l.used = 0
	}
}

// Used returns the currently reserved bytes.
func (l *LDM) Used() int { return l.used }

// Remaining returns the free bytes.
func (l *LDM) Remaining() int { return LDMBytes - l.used }

// Utilization returns used/capacity (Table 4 reports 93.8%).
func (l *LDM) Utilization() float64 { return float64(l.used) / LDMBytes }

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
