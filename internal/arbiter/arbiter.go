// Package arbiter models the interconnect between the private L2 caches and
// the banked shared LLC: a VPC-style arbiter (Nesbit et al., "Virtual
// Private Caches", ISCA 2007) that schedules per-core request queues onto
// the LLC banks, as used in the paper's Table 3 ("A VPC based arbiter is
// used to schedule requests from L2 to LLC").
//
// The LLC is organised as 4 banks with uniform access latency; a bank can
// start one request per ServiceCycles. The surrounding simulator interleaves
// cores at one-op granularity, so requests reach a bank with timestamps that
// are not globally monotonic (a core's L2 miss carries a computed future
// time, and another core's logically-earlier request may be presented
// afterwards). Each bank therefore keeps a busy-interval reservation
// timeline (internal/timeline) rather than a single busy-until mark:
// earliest-gap placement serves every request at the first instant the bank
// is actually free at or after the request's own arrival time, so a
// request's wait is never inflated by bank time reserved for
// logically-later requests, and per-core wait accounting stays exact under
// out-of-order arrival.
package arbiter

import (
	"fmt"
	"math/bits"

	"repro/internal/timeline"
)

// WaitBuckets is the fixed bucket count of the arbiter-wait histogram.
// Bucket 0 counts zero-wait grants, bucket k (1..WaitBuckets-2) counts
// waits in [2^(k-1), 2^k) cycles, and the last bucket is the open tail
// (>= 2^(WaitBuckets-2)). Power-of-two edges keep the histogram fixed-size
// and config-independent, which is what lets AppResult carry it as a value
// and the fingerprint/golden machinery pin it bit-for-bit; the tail is what
// separates calm from bursty traffic, and means are recoverable from the
// existing WaitCycles counters.
const WaitBuckets = 16

// WaitHist is one requester's wait distribution over the fixed buckets.
type WaitHist [WaitBuckets]uint64

// Total returns the number of requests counted.
func (h WaitHist) Total() uint64 {
	var n uint64
	for _, c := range h {
		n += c
	}
	return n
}

// WaitBucket maps a queueing delay to its histogram bucket.
func WaitBucket(wait uint64) int {
	if wait == 0 {
		return 0
	}
	b := bits.Len64(wait) // wait in [2^(b-1), 2^b)
	if b > WaitBuckets-1 {
		b = WaitBuckets - 1
	}
	return b
}

// BucketLabel renders bucket k's cycle range for table headers/rows.
func BucketLabel(k int) string {
	switch {
	case k <= 0:
		return "0"
	case k >= WaitBuckets-1:
		return fmt.Sprintf("%d+", uint64(1)<<(WaitBuckets-2))
	default:
		return fmt.Sprintf("%d-%d", uint64(1)<<(k-1), (uint64(1)<<k)-1)
	}
}

// Config describes the arbiter and bank organisation. The requesters are
// the machine's cores; New takes their count.
type Config struct {
	Banks         int    // LLC banks (4 in Table 3)
	ServiceCycles uint64 // bank occupancy per request (pipelined lookup issue rate)
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{Banks: 4, ServiceCycles: 4}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("arbiter: banks must be a positive power of two, got %d", c.Banks)
	}
	if c.ServiceCycles == 0 {
		return fmt.Errorf("arbiter: service cycles must be positive")
	}
	return nil
}

// VPC is the arbiter state.
type VPC struct {
	cfg   Config
	banks []timeline.Timeline
	// Per-core stats.
	requests   []uint64
	waitCycles []uint64
	waitHist   []WaitHist
}

// New builds an arbiter serving cores requesters, panicking on invalid
// configuration.
func New(cfg Config, cores int) *VPC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cores <= 0 {
		panic(fmt.Sprintf("arbiter: cores must be positive, got %d", cores))
	}
	return &VPC{
		cfg:        cfg,
		banks:      make([]timeline.Timeline, cfg.Banks),
		requests:   make([]uint64, cores),
		waitCycles: make([]uint64, cores),
		waitHist:   make([]WaitHist, cores),
	}
}

// Config returns the arbiter's configuration.
func (v *VPC) Config() Config { return v.cfg }

// BankOf maps an LLC set index to its bank (low-order set bits).
func (v *VPC) BankOf(set int) int { return set & (v.cfg.Banks - 1) }

// Schedule admits a request from core to bank arriving at time now and
// returns when the bank starts serving it. The bank is reserved for
// ServiceCycles from the start time. Arrival times need not be monotonic:
// a request is placed in the earliest free gap at or after its own arrival,
// and its recorded wait is exactly start - now — time the bank was truly
// occupied at the request's arrival — never time reserved by
// later-timestamped requests that happened to be presented first.
func (v *VPC) Schedule(core, bank int, now uint64) (start uint64) {
	start = v.banks[bank].Place(now, v.cfg.ServiceCycles)
	if start > now {
		v.waitCycles[core] += start - now
	}
	v.waitHist[core][WaitBucket(start-now)]++
	v.requests[core]++
	return start
}

// Requests returns core's scheduled request count.
func (v *VPC) Requests(core int) uint64 { return v.requests[core] }

// WaitCycles returns the cumulative queueing delay experienced by core.
func (v *VPC) WaitCycles(core int) uint64 { return v.waitCycles[core] }

// MeanWait returns the average queueing delay per request for core.
func (v *VPC) MeanWait(core int) float64 {
	if v.requests[core] == 0 {
		return 0
	}
	return float64(v.waitCycles[core]) / float64(v.requests[core])
}

// WaitHistOf returns core's wait distribution over the fixed buckets — the
// per-app contention record behind AppResult.ArbiterWaitHist.
func (v *VPC) WaitHistOf(core int) WaitHist { return v.waitHist[core] }

// ResetStats clears per-core counters but keeps bank occupancy.
func (v *VPC) ResetStats() {
	for i := range v.requests {
		v.requests[i] = 0
		v.waitCycles[i] = 0
		v.waitHist[i] = WaitHist{}
	}
}
