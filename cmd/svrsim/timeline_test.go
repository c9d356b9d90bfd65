package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// timelineArgs is the tiny traced window every timeline test uses.
var timelineArgs = []string{"NAS-IS", "-o", "-", "-skip", "20000", "-window", "500"}

// chromeOut is the decoded shape of the exporter's JSON we assert on.
type chromeOut struct {
	TraceEvents []struct {
		Name string
		Ph   string
		Ts   int64
		Tid  int
		Cat  string
	} `json:"traceEvents"`
}

// TestTimelineGoldenOutput is the golden-output check for the timeline
// command: the simulator is deterministic, so two identical invocations
// must produce byte-identical Chrome-trace JSON, and that JSON must carry
// the expected track structure.
func TestTimelineGoldenOutput(t *testing.T) {
	first := runCmd(t, "timeline", timelineArgs...)
	second := runCmd(t, "timeline", timelineArgs...)
	if first != second {
		t.Fatal("timeline output is not deterministic across identical runs")
	}
	var tr chromeOut
	if err := json.Unmarshal([]byte(first), &tr); err != nil {
		t.Fatalf("timeline output is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) < 500 {
		t.Fatalf("only %d trace events for a 500-instruction window", len(tr.TraceEvents))
	}
	var names []string
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" {
			if n, ok := metaName(first, ev.Tid); ok {
				names = append(names, n)
			}
		}
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"lane 0", "lane 1", "memory 0", "svr engine"} {
		if !strings.Contains(joined, want) {
			t.Errorf("track %q missing (tracks: %s)", want, joined)
		}
	}
}

// metaName digs the name arg out of a metadata event for the given tid.
func metaName(blob string, tid int) (string, bool) {
	var tr struct {
		TraceEvents []struct {
			Ph   string
			Tid  int
			Name string
			Args map[string]any
		} `json:"traceEvents"`
	}
	if json.Unmarshal([]byte(blob), &tr) != nil {
		return "", false
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" && ev.Tid == tid && ev.Name == "thread_name" {
			s, ok := ev.Args["name"].(string)
			return s, ok
		}
	}
	return "", false
}

// TestTimelineMonotonicLanes: per-lane slice begins must be
// non-decreasing or Perfetto rejects the track.
func TestTimelineMonotonicLanes(t *testing.T) {
	out := runCmd(t, "timeline", timelineArgs...)
	var tr chromeOut
	if err := json.Unmarshal([]byte(out), &tr); err != nil {
		t.Fatal(err)
	}
	last := map[int]int64{}
	slices := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		slices++
		if prev, ok := last[ev.Tid]; ok && ev.Ts < prev {
			t.Fatalf("tid %d: slice at ts %d after ts %d", ev.Tid, ev.Ts, prev)
		}
		last[ev.Tid] = ev.Ts
	}
	if slices < 500 {
		t.Errorf("only %d slices for a 500-instruction window", slices)
	}
}

func TestTimelineJSONLFormat(t *testing.T) {
	out := runCmd(t, "timeline", "NAS-IS", "-o", "-", "-format", "jsonl",
		"-skip", "20000", "-window", "200")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 200 {
		t.Fatalf("only %d JSONL lines for a 200-instruction window", len(lines))
	}
	kinds := map[string]int{}
	for i, line := range lines {
		var ev struct {
			Kind  string
			Cycle int64
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i, err, line)
		}
		kinds[ev.Kind]++
	}
	if kinds["issue"] < 200 {
		t.Errorf("kinds = %v, want >=200 issue events", kinds)
	}
}

func TestTimelineWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := runCmd(t, "timeline", "NAS-IS", "-o", path, "-skip", "20000", "-window", "200")
	if !strings.Contains(out, "timeline of NAS-IS") || !strings.Contains(out, path) {
		t.Errorf("summary line missing:\n%s", out)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeOut
	if err := json.Unmarshal(blob, &tr); err != nil {
		t.Fatalf("written file is not valid JSON: %v", err)
	}
}

func TestTimelineUnknownWorkload(t *testing.T) {
	var b strings.Builder
	err := dispatch(&b, "timeline", []string{"nosuchwl"})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "valid workloads:") ||
		!strings.Contains(err.Error(), "NAS-IS") {
		t.Errorf("error does not list valid workloads: %v", err)
	}
}

func TestTraceUnknownWorkload(t *testing.T) {
	var b strings.Builder
	err := dispatch(&b, "trace", []string{"nosuchwl"})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "valid workloads:") {
		t.Errorf("error does not list valid workloads: %v", err)
	}
}

// TestRunTimeseriesFlag drives `run -timeseries` end to end: the sweep
// must leave a CSV with label/workload prefix columns and one row per
// sampling interval per cell.
func TestRunTimeseriesFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ts.csv")
	runCmd(t, "run", "fig3", "-quick", "-workloads", "NAS-IS",
		"-timeseries", path, "-sample", "50000")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("csv has %d lines, want header plus several rows:\n%s", len(lines), blob)
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "label" || header[1] != "workload" {
		t.Fatalf("header = %v", header)
	}
	want := map[string]bool{"ipc": false, "l1d_mpki": false, "dram_busy": false,
		"svr_coverage": false, "demand_p99": false}
	for _, h := range header {
		if _, ok := want[h]; ok {
			want[h] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("column %q missing from header %v", name, header)
		}
	}
	for i, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(header) {
			t.Fatalf("row %d has %d fields for %d columns: %s", i, len(fields), len(header), line)
		}
		if fields[1] != "NAS-IS" {
			t.Errorf("row %d workload = %q", i, fields[1])
		}
	}
}

// TestStatusServer exercises the -status surface directly: /status must
// serve the scheduler snapshot as JSON and /debug/vars must stay valid
// expvar output.
func TestStatusServer(t *testing.T) {
	addr, shutdown, err := startStatusServer("127.0.0.1:0", sim.NewEngine(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Scheduler sim.GridStatus
		RunCache  struct{ Hits, Misses int64 }
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	if snap.Scheduler.Active {
		t.Error("scheduler reported active with no sweep running")
	}

	vresp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	blob, err := io.ReadAll(vresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(blob, &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["scheduler"]; !ok {
		t.Error("expvar output has no scheduler key")
	}
}
