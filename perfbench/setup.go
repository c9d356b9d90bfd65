package main

import (
	"fmt"
	"time"

	"repro/internal/emu"
	"repro/internal/sim"
	"repro/internal/stream"
)

// setupReport times one pass of the benchmark's set-up section: building
// every input image, recording every grid window, and the first warmed
// fast-forward of paper-cell. The timed grid does this work again inside
// RunMatrix (the store starts cold in every process); set-up measures it
// on its own so work moved between the grid and input preparation shows.
type setupReport struct {
	EntryNS  int64 `json:"entry_ns"` // the process's main entry, unix ns
	SetupNS  int64 `json:"setup_ns"`
	BuildNS  int64 `json:"build_ns"`
	RecordNS int64 `json:"record_ns"`
	FFNS     int64 `json:"ff_ns"`
}

func runSetup(w workload) (setupReport, error) {
	var r setupReport
	t0 := time.Now()
	for _, spec := range w.specs {
		tb := time.Now()
		inst := spec.Build(w.p.Scale)
		r.BuildNS += time.Since(tb).Nanoseconds()
		if w.gridWindow() {
			tr := time.Now()
			if _, err := stream.Record(emu.New(inst.Prog, inst.Mem), w.window()); err != nil {
				return r, fmt.Errorf("recording %s: %w", spec.Name, err)
			}
			r.RecordNS += time.Since(tr).Nanoseconds()
			continue
		}
		m, err := sim.NewMachine(w.cfgs[0], inst)
		if err != nil {
			return r, err
		}
		tf := time.Now()
		m.FastForward(w.p.FastForward, w.p.Warm)
		r.FFNS += time.Since(tf).Nanoseconds()
	}
	r.SetupNS = time.Since(t0).Nanoseconds()
	return r, nil
}
