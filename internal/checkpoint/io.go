package checkpoint

import "fmt"

// The paper's checkpoint I/O path combines two techniques to reach
// 120 GB/s (92.3% of the file system peak) for 10^5-rank runs:
//
//   - group I/O: ranks are organized into groups; one leader per group
//     aggregates its members' blocks and issues large sequential writes,
//     bounding the number of concurrent file-system clients;
//   - balanced I/O forwarding: leader streams are spread evenly over the
//     I/O forwarding nodes so no forwarder saturates early.
//
// IOPlan captures both assignments; EffectiveBandwidth evaluates the model.

// IOPlan is a group + forwarding assignment for nranks writers.
type IOPlan struct {
	Leaders    []int // rank id of each group leader
	GroupOf    []int // group index per rank
	Forwarder  []int // forwarding node per group leader
	NForwarder int
}

// PlanIO builds a group I/O + balanced forwarding plan.
func PlanIO(nranks, groupSize, nforwarders int) (*IOPlan, error) {
	if nranks <= 0 || groupSize <= 0 || nforwarders <= 0 {
		return nil, fmt.Errorf("checkpoint: invalid I/O plan (%d ranks, group %d, %d forwarders)", nranks, groupSize, nforwarders)
	}
	p := &IOPlan{NForwarder: nforwarders}
	p.GroupOf = make([]int, nranks)
	for r := 0; r < nranks; r += groupSize {
		leader := r
		g := len(p.Leaders)
		p.Leaders = append(p.Leaders, leader)
		for m := r; m < r+groupSize && m < nranks; m++ {
			p.GroupOf[m] = g
		}
	}
	p.Forwarder = make([]int, len(p.Leaders))
	for g := range p.Leaders {
		p.Forwarder[g] = g % nforwarders // balanced round-robin
	}
	return p, nil
}

// NumGroups returns the number of I/O groups (= concurrent writers).
func (p *IOPlan) NumGroups() int { return len(p.Leaders) }

// ForwarderLoads returns the number of leader streams per forwarding node.
func (p *IOPlan) ForwarderLoads() []int {
	loads := make([]int, p.NForwarder)
	for _, f := range p.Forwarder {
		loads[f]++
	}
	return loads
}

// Imbalance returns max/mean forwarder load (1.0 = perfectly balanced).
func (p *IOPlan) Imbalance() float64 {
	loads := p.ForwarderLoads()
	maxL, sum := 0, 0
	for _, l := range loads {
		if l > maxL {
			maxL = l
		}
		sum += l
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(loads))
	return float64(maxL) / mean
}

// File-system model constants, chosen so the balanced plan reproduces the
// paper's 120 GB/s at 92.3% of a 130 GB/s file-system peak.
const (
	// FSPeakGBs is the file-system peak bandwidth.
	FSPeakGBs = 130.0
	// ForwarderGBs is the per-forwarding-node streaming bandwidth.
	ForwarderGBs = 1.58
	// clientEfficiency is the per-leader protocol efficiency for large
	// sequential writes.
	clientEfficiency = 0.95
)

// EffectiveBandwidth evaluates the model: aggregate bandwidth is capped by
// the slowest-loaded forwarder (imbalance) and the file-system peak.
func (p *IOPlan) EffectiveBandwidth() float64 {
	bw := float64(p.NForwarder) * ForwarderGBs * clientEfficiency / p.Imbalance()
	if bw > FSPeakGBs {
		bw = FSPeakGBs
	}
	return bw
}

// WriteSeconds returns the modeled time to write totalBytes through the plan.
func (p *IOPlan) WriteSeconds(totalBytes int64) float64 {
	return float64(totalBytes) / (p.EffectiveBandwidth() * 1e9)
}
