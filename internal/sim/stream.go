package sim

import (
	"time"

	"repro/internal/artifact"
	"repro/internal/emu"
	"repro/internal/stream"
	"repro/internal/workloads"
)

// This file is the recording side of execute-once, time-many: one
// functional recording pass per workload window (cachedRecording, under
// the same singleflight artifact store as the shared checkpoints),
// stepped by every single-window cell of that window as a cohort member
// (cohort.go).

// cachedRecording returns the shared recording of one workload window —
// warmup+measure instructions starting at the post-fast-forward point —
// producing it at most once across concurrent callers via the artifact
// store. The pass is purely functional: a bare emulator steps into the
// encoder, composing with the checkpoint class (the fast-forward itself
// is cachedCheckpoint's, never repeated here). The outcome reports
// whether this caller got the buffer from the store (hit or joined
// flight) rather than recording it.
func (e *Engine) cachedRecording(spec workloads.Spec, cfg Config, p Params, tr *Tracker, pc *phaseCtx) (*stream.Recording, artifact.Outcome) {
	n := p.Warmup + p.Measure
	k := streamKey(spec.Name, p.Scale, p.FastForward, n)
	callStart := time.Now()
	v, oc := e.store.GetOrProduce(k, func() (any, int64) {
		// Resolve the start-point image before entering the recording
		// phase: cachedCheckpoint manages the building/checkpointing
		// counters itself, so it must run while this worker still counts
		// as "building".
		inst, ck, _ := e.windowStart(spec, cfg, p, tr, pc)
		cpu := emu.New(inst.Prog, inst.Mem.Clone())
		if ck != nil {
			cpu.LoadArch(ck.arch)
		}

		tr.recBegin()
		t0 := time.Now()
		rec, err := stream.Record(cpu, n)
		if err != nil {
			panic(err) // the emulator broke the stream contract: a bug, not an input error
		}
		d := time.Since(t0)
		tr.recEnd(d)
		pc.add(PhaseRecord, d)

		e.addRecording(int64(rec.Bytes()), rec.N)
		return rec, int64(rec.Bytes())
	})
	if oc.Waited {
		pc.add(PhaseStoreWait, time.Since(callStart))
	}
	pc.artifact(k, oc, time.Since(callStart))
	return v.(*stream.Recording), oc
}
