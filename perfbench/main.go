// Command perfbench is the repository's benchmark. It runs one workload —
// the paper's memory-bound evaluation grid, the SPEC-proxy grid, or one
// paper-scale sampled cell — through the public grid scheduler and prints
// end-to-end host cost (untraced) or per-layer attribution (traced), with
// a final JSON line. README.md documents the workloads and metrics.
//
//	bash perfbench/run.sh --workload eval-grid --seed 1 --seconds 20 --trace 0
//
// Every measurement runs in a fresh child process of this binary on the
// scheduler's defaults, so each timed grid starts from a cold artifact
// store and the process-wide modes are never touched.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// measureProcs is the GOMAXPROCS, and so the grid worker count, of every
// measurement child. One worker on an otherwise idle second CPU measured
// about ±3 % run to run on the 2-vCPU reference box against ±8 % for two
// workers sharing both CPUs with the GC and the host, and it matches the
// GOMAXPROCS=1 convention of the repository's earlier bench figures.
const measureProcs = 1

// childTimeout bounds one run: every child is killed past it, well
// inside the three minutes a run may take.
const childTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	child    string // "" for the parent, else the measurement this child runs
	check    bool   // grid child: re-simulate a sample with the live oracle
	traceOut string // traced-grid or layers child: Chrome trace path
}

func main() {
	entry := time.Now().UnixNano()
	os.Exit(run(os.Args[1:], entry, os.Stdout))
}

func run(args []string, entry int64, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input generator seed (workloads.Scale.Seed)")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds per run on the reference box (sets the timed grid repetitions)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.child, "child", "", "internal: run one measurement (setup, grid, traced-grid, layers)")
	fs.BoolVar(&o.check, "check", false, "internal: grid child re-simulates a sample with the live oracle")
	fs.StringVar(&o.traceOut, "trace-out", "", "internal: traced-grid or layers child writes its Chrome trace here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	var payload any
	if o.child != "" {
		runtime.GOMAXPROCS(measureProcs)
	}
	switch o.child {
	case "":
		if err := drive(o, w, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	case "setup":
		r, err := runSetup(w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		r.EntryNS = entry
		payload = r
	case "grid":
		g := runGrid(w, o.seed, nil, o.check)
		g.EntryNS = entry
		payload = g
	case "traced-grid":
		payload = runTracedGrid(w, o, stdout)
	case "layers":
		costs, err := runLayers(w, o, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		payload = costs
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown child %q\n", o.child)
		return 2
	}
	blob, err := json.Marshal(payload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	return 0
}

// final is the last line of a run's standard output.
type final struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// drive runs the measurements of one benchmark run, each in a fresh
// child process, and prints the summary and the final JSON line.
func drive(o options, w workload, out io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	calib0 := calibNS()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%d cells=%d workers=%d\n",
		w.name, o.seed, o.seconds, o.trace, len(w.cells()), measureProcs)
	c := children{ctx: ctx, self: self, o: o, out: out}
	var f final
	if o.trace == 0 {
		f, err = measure(c, w)
	} else {
		f, err = traced(c, w)
	}
	if err != nil {
		return err
	}
	calib1 := calibNS()
	fmt.Fprintf(out, "host.calib_ns start=%.4f end=%.4f\n", calib0, calib1)
	if o.trace == 1 {
		f.Metrics["host.calib_ns"] = metric{Value: (calib0 + calib1) / 2, Unit: "ns"}
	}
	blob, err := json.Marshal(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", blob)
	return nil
}

// children spawns measurement processes of this binary.
type children struct {
	ctx  context.Context
	self string
	o    options
	out  io.Writer
}

// run starts one child, waits for it, echoes its report lines and decodes
// its final JSON line into v. It returns the wall-clock time the child
// was started at, in unix ns.
func (c children) run(kind string, v any, extra ...string) (int64, error) {
	args := append([]string{"-child", kind, "-workload", c.o.workload,
		"-seed", strconv.FormatInt(c.o.seed, 10)}, extra...)
	cmd := exec.CommandContext(c.ctx, c.self, args...)
	// A child must not outlive a parent that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	spawn := time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s child: %w", kind, err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(c.out, l)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return 0, fmt.Errorf("%s child report: %w", kind, err)
	}
	return spawn, nil
}

// measure is the untraced run: setup passes, then cold timed grids.
func measure(c children, w workload) (final, error) {
	var setups []float64
	for i := 0; i < w.setupPasses; i++ {
		var r setupReport
		spawn, err := c.run("setup", &r)
		if err != nil {
			return final{}, err
		}
		s := float64(r.EntryNS-spawn+r.SetupNS) / 1e9
		setups = append(setups, s)
		fmt.Fprintf(c.out, "setup pass %d: %.3f s (process start %.1f ms, build %.3f s, record %.3f s, fast-forward %.3f s)\n",
			i+1, s, float64(r.EntryNS-spawn)/1e6, float64(r.BuildNS)/1e9, float64(r.RecordNS)/1e9, float64(r.FFNS)/1e9)
	}
	grids, err := timedGrids(c, w, w.reps(c.o.seconds))
	if err != nil {
		return final{}, err
	}
	f := summarize(c.out, w, c.o.seed, grids)
	// Cell latencies are taken per grid and the run reports their median
	// over grids, so a burst of host noise in one grid does not become
	// the run's tail.
	var nsPerInstr, rss, p50s, p95s []float64
	for _, g := range grids {
		nsPerInstr = append(nsPerInstr, ratio(float64(g.WallNS), float64(g.Instrs)))
		rss = append(rss, g.PeakRSSMiB)
		p50, _ := tailPercentile(g.UnitMS, 0.50)
		p95, used := tailPercentile(g.UnitMS, 0.95)
		p50s, p95s = append(p50s, p50), append(p95s, p95)
		fmt.Fprintf(c.out, "cell latency, grid %d: %d samples, p50 %.1f ms, p95 reported at p%.1f = %.1f ms\n",
			len(p50s), len(g.UnitMS), p50, used*100, p95)
	}
	fmt.Fprintf(c.out, "ns_per_instr per grid: %s\n", fmtList(nsPerInstr))
	fmt.Fprintf(c.out, "setup_s per pass: %s\n", fmtList(setups))
	f.Metrics = map[string]metric{
		"ns_per_instr": {Value: median(nsPerInstr), Unit: "ns/instr"},
		"cell_ms_p50":  {Value: median(p50s), Unit: "ms"},
		"cell_ms_p95":  {Value: median(p95s), Unit: "ms"},
		"setup_s":      {Value: median(setups), Unit: "s"},
		"peak_rss_mib": {Value: median(rss), Unit: "MiB"},
	}
	return f, nil
}

// timedGrids runs n cold timed grids; the first also runs the output
// check.
func timedGrids(c children, w workload, n int) ([]gridReport, error) {
	var grids []gridReport
	for i := 0; i < n; i++ {
		var g gridReport
		extra := []string{}
		if i == 0 {
			extra = append(extra, "-check")
		}
		if _, err := c.run("grid", &g, extra...); err != nil {
			return nil, err
		}
		fmt.Fprintf(c.out, "grid rep %d: %.3f s wall, %d instrs, %.2f ns/instr, %d units, peak RSS %.0f MiB\n",
			i+1, float64(g.WallNS)/1e9, g.Instrs, ratio(float64(g.WallNS), float64(g.Instrs)), g.Units, g.PeakRSSMiB)
		grids = append(grids, g)
	}
	return grids, nil
}

// summarize counts failed cells across the timed grids — cells that
// panicked or simulated nothing, that the live oracle disagreed with, or
// whose Result differs from the first grid's for the same seed — and
// prints the output check and the determinism digest.
func summarize(out io.Writer, w workload, seed int64, grids []gridReport) final {
	cells := w.cells()
	var f final
	agree := true
	for i, g := range grids {
		f.Attempted += g.Cells
		bad := map[string]bool{}
		for _, n := range g.Failed {
			bad[n] = true
		}
		for _, n := range g.Mismatches {
			bad[n] = true
		}
		for j, h := range g.CellHashes {
			if i > 0 && (j >= len(grids[0].CellHashes) || h != grids[0].CellHashes[j]) {
				bad[w.cellName(cells[j])] = true
				agree = false
			}
		}
		names := make([]string, 0, len(bad))
		for n := range bad {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "FAILED cell %s (grid rep %d)\n", n, i+1)
		}
		f.Failed += len(bad)
		if len(g.Checked) > 0 {
			fmt.Fprintf(out, "output check: %d cells re-simulated with the live oracle sim.Run, %d mismatches: %s\n",
				len(g.Checked), len(g.Mismatches), strings.Join(g.Checked, " "))
		}
	}
	fmt.Fprintf(out, "digest %s seed=%d: %s (%d grids agree: %v)\n", w.name, seed, grids[0].Digest, len(grids), agree)
	fmt.Fprintf(out, "failed cells: %d of %d attempted (%.4f)\n", f.Failed, f.Attempted, failureShare(f.Failed, f.Attempted))
	f.Correct = f.Failed == 0
	return f
}

// traced is the traced run, three children in fresh processes: one
// untraced cold grid (the overhead baseline, with the output check), the
// same grid with a span around every work unit, and the layer drives on
// the workload's own windows. The drives get a process of their own so
// their image builds start from a fresh heap, as set-up and the grid do.
func traced(c children, w workload) (final, error) {
	grids, err := timedGrids(c, w, 1)
	if err != nil {
		return final{}, err
	}
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return final{}, err
	}
	prefix := filepath.Join(dir, fmt.Sprintf("perfbench-trace-%s-seed%d", w.name, c.o.seed))
	var g gridReport
	if _, err := c.run("traced-grid", &g, "-trace-out", prefix+"-grid.json"); err != nil {
		return final{}, err
	}
	var costs []windowCost
	if _, err := c.run("layers", &costs, "-trace-out", prefix+"-layers.json"); err != nil {
		return final{}, err
	}
	f := summarize(c.out, w, c.o.seed, append(grids, g))
	terms := closureTerms(w, g, costs)
	fmt.Fprintf(c.out, "closure terms (ops x ns/op) against %.3f s of timed-grid CPU:\n", float64(g.CPUNS)/1e9)
	for _, t := range terms {
		fmt.Fprintf(c.out, "  %-26s %14.0f ops %12.2f ns/op %8.3f s\n", t.name, t.ops, t.nsPerOp, t.ops*t.nsPerOp/1e9)
	}
	f.Metrics = layerMetrics(g, costs, terms)
	f.Metrics["trace.overhead_ratio"] = metric{Value: ratio(float64(g.WallNS), float64(grids[0].WallNS)), Unit: "ratio"}
	return f, nil
}

// runTracedGrid is the traced grid child: the timed grid with spans.
func runTracedGrid(w workload, o options, out io.Writer) gridReport {
	sp := newSpans()
	g := runGrid(w, o.seed, sp, false)
	finishTrace(sp, o.traceOut, g.Workers, out)
	return g
}

// runLayers is the layer-drive child: every layer driven alone on each
// workload window, one span per drive.
func runLayers(w workload, o options, out io.Writer) ([]windowCost, error) {
	sp := newSpans()
	root := sp.begin("layers", 0, 0, map[string]any{"workload": w.name})
	var costs []windowCost
	for si, spec := range w.specs {
		id := sp.begin("window", root, 0, map[string]any{"workload": spec.Name})
		c, err := driveWindow(w, si, sp, id)
		sp.end(id)
		if err != nil {
			return nil, err
		}
		costs = append(costs, c)
	}
	sp.end(root)
	finishTrace(sp, o.traceOut, 0, out)
	return costs, nil
}

// finishTrace prints the span table and writes the Chrome trace.
func finishTrace(sp *spans, path string, workers int, out io.Writer) {
	sp.summary(out)
	if path == "" {
		return
	}
	if err := sp.writeChrome(path, workers); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		return
	}
	fmt.Fprintf(out, "trace written to %s\n", path)
}

func fmtList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
