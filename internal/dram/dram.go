// Package dram models the off-chip memory channel as a
// latency + bandwidth-occupancy resource (Table III: 45 ns latency,
// 50 GiB/s bandwidth at 2 GHz), which is the level of detail the paper's
// bandwidth-sensitivity study (Fig 18) exercises.
//
// Requests arrive with out-of-order timestamps (runahead prefetches and
// writebacks carry future completion times), so occupancy is tracked as a
// windowed bandwidth ledger rather than a single next-free cursor: each
// 64-cycle window holds up to its full cycle budget of line transfers,
// and a request books the first window at or after its arrival time with
// spare capacity. Saturation shows up as requests spilling into later
// windows — queueing delay — while light traffic passes at idle latency
// regardless of the order the simulator discovers it in.
package dram

import (
	"fmt"

	"repro/internal/metrics"
)

// winBits is log2 of the ledger window size in cycles.
const winBits = 6

// fixShift scales fractional cycles into fixed-point units.
const fixShift = 8

// ringWindows is the span of bookable future windows (2^14 * 64 cycles ≈
// 1 M cycles); requests beyond it are clamped.
const ringWindows = 1 << 14

// Channel is a single memory channel. Time is in core cycles.
type Channel struct {
	// LatencyCycles is the idle-channel access latency.
	LatencyCycles int64

	transferFixed int64 // occupancy of one line transfer, fixed-point cycles

	baseWin int64   // window index of ring[0]
	ring    []int32 // used fixed-point cycles per window

	// Stats.
	Lines      int64 // total line transfers
	BusyCycles int64 // cumulative channel-busy time (cycles, rounded)
	queued     int64 // cumulative queueing delay in cycles

	queueLat *metrics.Histogram // per-request queueing delay, if registered
}

// Register publishes the channel's counters and queueing-delay histogram.
// A shared channel (multi-core) may be registered into several per-core
// registries; counters then reset with every core's window (as before),
// while the histogram feeds the most recently registered core.
func (c *Channel) Register(r *metrics.Registry) {
	r.Int64("dram.lines", "DRAM line transfers", &c.Lines)
	r.Int64("dram.busy_cycles", "cumulative channel-busy cycles", &c.BusyCycles)
	r.Int64("dram.queued_cycles", "cumulative bandwidth queueing delay (cycles)", &c.queued)
	c.queueLat = r.NewHistogram("lat.dram.queue", "per-request DRAM bandwidth queueing delay (cycles)")
}

// Config describes a channel.
type Config struct {
	FreqGHz       float64 // core frequency, cycles per ns
	LatencyNS     float64 // idle access latency
	BandwidthGBps float64 // sustained bandwidth in GiB/s
	LineBytes     int
}

// DefaultConfig mirrors Table III at a 2 GHz core: 45 ns, 50 GiB/s, 64 B lines.
func DefaultConfig() Config {
	return Config{FreqGHz: 2.0, LatencyNS: 45, BandwidthGBps: 50, LineBytes: 64}
}

// transferFixed is one line's transfer time in fixed-point cycles.
func (cfg Config) transferFixed() int64 {
	cyclesPerLine := float64(cfg.LineBytes) / (cfg.BandwidthGBps * (1 << 30)) * cfg.FreqGHz * 1e9
	return int64(cyclesPerLine*(1<<fixShift) + 0.5)
}

// Validate reports why cfg cannot model a channel: a non-positive clock,
// line size or bandwidth, a negative or absurd latency, or a line
// transfer longer than one ledger window, which the ledger would
// silently undercount.
func (cfg Config) Validate() error {
	switch {
	case !(cfg.FreqGHz > 0 && cfg.FreqGHz <= 100):
		return fmt.Errorf("dram: FreqGHz %g outside (0, 100]", cfg.FreqGHz)
	case !(cfg.LatencyNS >= 0 && cfg.LatencyNS <= 1e5):
		return fmt.Errorf("dram: LatencyNS %g outside [0, 1e5]", cfg.LatencyNS)
	case cfg.LineBytes < 1 || cfg.LineBytes > 4096:
		return fmt.Errorf("dram: LineBytes %d outside [1, 4096]", cfg.LineBytes)
	case !(cfg.BandwidthGBps > 0) || cfg.transferFixed() > int64(winCapacity):
		return fmt.Errorf("dram: BandwidthGBps %g moves a line in more than one %d-cycle window", cfg.BandwidthGBps, 1<<winBits)
	}
	return nil
}

// New creates a channel from a configuration.
func New(cfg Config) *Channel {
	return &Channel{
		LatencyCycles: int64(cfg.LatencyNS*cfg.FreqGHz + 0.5),
		transferFixed: cfg.transferFixed(),
		ring:          make([]int32, ringWindows),
	}
}

// winCapacity is the fixed-point cycle budget of one window.
const winCapacity = int32(1) << (winBits + fixShift)

// book reserves transfer occupancy in the first window at or after cycle
// at with spare capacity, returning the transfer start cycle.
func (c *Channel) book(at int64) int64 {
	if at < 0 {
		at = 0
	}
	w := at >> winBits
	if w < c.baseWin {
		// Arrived logically before the ledger's horizon: the past
		// windows are already accounted; treat as arriving at the base.
		w = c.baseWin
	}
	if w >= c.baseWin+ringWindows {
		// Far-future request: slide the ledger forward.
		c.slideTo(w - ringWindows/2)
	}
	for {
		if w >= c.baseWin+ringWindows {
			c.slideTo(w - ringWindows/2)
		}
		idx := w - c.baseWin
		if c.ring[idx] < winCapacity {
			c.ring[idx] += int32(c.transferFixed)
			start := w << winBits
			if start < at {
				start = at
			}
			return start
		}
		w++
	}
}

// slideTo advances the ledger base, discarding fully past windows.
func (c *Channel) slideTo(newBase int64) {
	if newBase <= c.baseWin {
		return
	}
	shift := newBase - c.baseWin
	if shift >= ringWindows {
		for i := range c.ring {
			c.ring[i] = 0
		}
	} else {
		copy(c.ring, c.ring[shift:])
		for i := ringWindows - int(shift); i < ringWindows; i++ {
			c.ring[i] = 0
		}
	}
	c.baseWin = newBase
}

// Access requests one line transfer starting no earlier than cycle at,
// and returns the cycle the line is available at the cache controller.
func (c *Channel) Access(at int64) int64 {
	start := c.book(at)
	if start > at {
		c.queued += start - at
		if c.queueLat != nil {
			c.queueLat.Observe(start - at)
		}
	}
	c.Lines++
	c.BusyCycles += c.transferFixed >> fixShift
	return start + c.LatencyCycles
}

// QueuedCycles returns the cumulative queueing delay experienced by all
// requests, a congestion indicator used in tests.
func (c *Channel) QueuedCycles() int64 { return c.queued }

// BytesTransferred returns total traffic assuming 64-byte lines.
func (c *Channel) BytesTransferred() int64 { return c.Lines * 64 }
