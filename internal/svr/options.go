// Package svr implements Scalar Vector Runahead — the paper's
// contribution. The Engine attaches to the in-order core as a Companion:
// on every issued instruction it updates the stride detector, and in
// piggyback runahead mode (PRM) it generates up to N transient scalar
// copies (a scalar-vector instruction, SVI) of each instruction in the
// indirect chain rooted at a striding load. Copies execute against the
// speculative register file (SRF), issue real prefetches into the cache
// hierarchy, and consume real issue slots with main-thread priority.
package svr

// LoopBoundMode selects the loop-bound prediction mechanism (§IV-B2,
// Fig 15).
type LoopBoundMode int

// Loop-bound prediction mechanisms evaluated in Fig 15.
const (
	// Tournament (default): 2-bit chooser between EWMA and LBD+CV.
	Tournament LoopBoundMode = iota
	// Maxlength always issues the full vector length.
	Maxlength
	// EWMAOnly uses the exponentially weighted moving average of
	// observed contiguous iterations.
	EWMAOnly
	// LBDWait uses the loop-bound detector but waits a full iteration
	// after loop entry for it to train (DVR's Discovery-Mode policy).
	LBDWait
	// LBDMaxlength uses the LBD when confident, Maxlength otherwise.
	LBDMaxlength
	// LBDCV uses the LBD with current-value register scavenging.
	LBDCV
)

var lbModeNames = map[LoopBoundMode]string{
	Tournament: "Tournament", Maxlength: "Maxlength", EWMAOnly: "EWMA",
	LBDWait: "LBD+Wait", LBDMaxlength: "LBD+Maxlength", LBDCV: "LBD+CV",
}

// String names the mode as in Fig 15.
func (m LoopBoundMode) String() string { return lbModeNames[m] }

// RecyclePolicy selects how SRF registers are reclaimed (§VI-D,
// "Register Recycling").
type RecyclePolicy int

// SRF recycling policies.
const (
	// RecycleLRU (default, SVR's policy): reclaim the SRF entry of the
	// least-recently-read mapped architectural register.
	RecycleLRU RecyclePolicy = iota
	// RecycleNone (DVR's policy under SVR constraints): never steal a
	// live mapping; vectorization fails when the SRF is exhausted.
	RecycleNone
)

// Options configures the engine. DefaultOptions matches the paper's
// default SVR-16 configuration. The check tags are the accepted ranges
// of configurations from outside the process (sim.CheckConfig); zeros
// are accepted because Normalize raises them, and the enum ranges span
// the declared modes and policies.
type Options struct {
	VectorLen int `check:"0,1024"` // N: scalars per scalar-vector (16 default, 8..128)
	SRFRegs   int `check:"0,256"`  // K: speculative vector registers (8 default)
	SDEntries int `check:"0,4096"` // stride-detector entries (32)
	LBDSize   int `check:"0,4096"` // loop-bound detector entries (8)

	PRMTimeout     int           `check:"0,1048576"` // instructions before PRM force-terminates (256)
	EWMACap        int           // iteration count that forces an EWMA update (512)
	StrideConfMin  int           // saturating-counter threshold to call a load striding (2)
	LoopBound      LoopBoundMode `check:"0,5"`
	Recycle        RecyclePolicy `check:"0,1"`
	WaitingMode    bool          // §IV-A5; disabling is the §VI-D ablation
	ScalarsPerSlot int           `check:"0,1024"` // scalars issued per issue slot (Fig 16; 1 default)
	Width          int           `check:"0,64"`   // core issue width, for slot math (3)

	// RegCopyCycles models DVR-style full register-file checkpointing on
	// PRM entry (0 for SVR; §VI-D quantifies the cost).
	RegCopyCycles int64 `check:"0,65536"`

	// PerLaneForwarding lets a dependent SVI lane start as soon as its
	// own source lane is ready. The hardware of §IV-A4 gates dependents
	// on the scoreboard return counter reaching zero — i.e. on ALL N
	// scalars of the producer completing — which is the (default)
	// faithful behaviour.
	PerLaneForwarding bool

	// Accuracy monitor (§IV-A7).
	AccuracyWarmup  int64   // uses+evictions before the monitor may ban (100)
	AccuracyMin     float64 // threshold below which SVR is banned (0.5)
	AccuracyRecheck uint64  // instructions between un-ban retries (1e6)
	MonitorAccuracy bool    // enable the monitor (on by default)
}

// Normalize clamps nonsensical values to safe minimums so a
// partially-filled Options cannot build a broken engine.
func (o Options) Normalize() Options {
	if o.VectorLen < 1 {
		o.VectorLen = 1
	}
	if o.SRFRegs < 1 {
		o.SRFRegs = 1
	}
	if o.SDEntries < 1 {
		o.SDEntries = 1
	}
	if o.LBDSize < 1 {
		o.LBDSize = 1
	}
	if o.PRMTimeout < 1 {
		o.PRMTimeout = 1
	}
	if o.Width < 1 {
		o.Width = 1
	}
	if o.ScalarsPerSlot < 1 {
		o.ScalarsPerSlot = 1
	}
	if o.StrideConfMin < 1 {
		o.StrideConfMin = 1
	}
	return o
}

// DefaultOptions returns the paper's SVR-16 configuration.
func DefaultOptions() Options {
	return Options{
		VectorLen: 16, SRFRegs: 8, SDEntries: 32, LBDSize: 8,
		PRMTimeout: 256, EWMACap: 512, StrideConfMin: 2,
		LoopBound: Tournament, Recycle: RecycleLRU, WaitingMode: true,
		ScalarsPerSlot: 1, Width: 3,
		AccuracyWarmup: 100, AccuracyMin: 0.5, AccuracyRecheck: 1_000_000,
		MonitorAccuracy: true,
	}
}
