package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/workloads"
)

var updateDigests = flag.Bool("update", false, "rewrite the committed digests in testdata/ from the current code")

const digestFile = "testdata/result_digests.txt"

// testWindow is one named simulation window of the fidelity tables.
type testWindow struct {
	name string
	p    Params
}

// testWindows are the window shapes every execution path must serve
// bit-identically: a plain warmup+measure window, the same window
// resumed from a shared warmed checkpoint, and both again with interval
// sampling (an interval that does not divide the window, so the last
// row is partial). At TinyScale NAS-IS halts inside every one of them,
// which pins the stream-ends-early edges as well.
func testWindows() []testWindow {
	plain := Params{Scale: workloads.TinyScale(), Warmup: 4_000, Measure: 16_000}
	ckpt := Params{Scale: workloads.TinyScale(), FastForward: 6_000, Warm: true, Measure: 16_000}
	sampled, sampledCkpt := plain, ckpt
	sampled.SampleEvery = 3_000
	sampledCkpt.SampleEvery = 3_000
	return []testWindow{
		{"plain", plain},
		{"checkpointed", ckpt},
		{"sampled", sampled},
		{"sampled-checkpointed", sampledCkpt},
	}
}

// digestConfigs spans every core kind, SVR at two vector lengths.
func digestConfigs() []Config {
	return []Config{MachineConfig(InO), MachineConfig(IMP), MachineConfig(OoO), SVRConfig(8), SVRConfig(64)}
}

var digestWorkloads = []string{"PR_KR", "NAS-IS"}

// resultDigest is the SHA-256 of a Result's canonical JSON encoding
// (float64 round-trips exactly, map keys are sorted), so equal digests
// mean bit-identical Results, time series included.
func resultDigest(t *testing.T, r Result) string {
	t.Helper()
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob))
}

// executeGrid runs cells on a cold engine through the scheduler's entry
// point, as groups of the given width (1: every cell alone; otherwise
// the PlanCohorts grouping of each window's cells).
func executeGrid(t *testing.T, cells []CellRequest, width int) []Result {
	t.Helper()
	tr := coldEngine().NewTracker(len(cells))
	results := make([]Result, len(cells))
	var groups [][]int
	if width == 1 {
		for i := range cells {
			groups = append(groups, []int{i})
		}
	} else {
		groups = PlanCohorts(cells, nil)
	}
	for _, g := range groups {
		reqs := make([]CellRequest, len(g))
		for k, i := range g {
			reqs[k] = cells[i]
		}
		res, _ := ExecuteCohort(reqs, tr)
		for k, i := range g {
			results[i] = res[k]
		}
	}
	return results
}

// TestResultDigests pins every Result of a small grid — each core kind
// × each test window × two workloads — to a committed SHA-256 digest,
// served as lone cells and as wide cohorts. A refactor of the execution
// machinery must leave every digest unchanged; regenerate with
// `go test ./internal/sim -run TestResultDigests -update` only when the
// simulated behavior is meant to change.
func TestResultDigests(t *testing.T) {
	t.Parallel()
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were generated on amd64; %s may fuse multiply-adds and change float bits", runtime.GOARCH)
	}
	var cells []CellRequest
	var keys []string
	for _, name := range digestWorkloads {
		spec := mustSpec(t, name)
		for _, w := range testWindows() {
			for _, cfg := range digestConfigs() {
				cells = append(cells, CellRequest{Cfg: cfg, Spec: spec, P: w.p})
				keys = append(keys, w.name+" "+name+" "+cfg.Label)
			}
		}
	}
	got := map[string]string{}
	for _, width := range []int{1, len(digestConfigs())} {
		for i, r := range executeGrid(t, cells, width) {
			d := resultDigest(t, r)
			if prev, ok := got[keys[i]]; ok && prev != d {
				t.Errorf("%s: width-%d digest %s differs from the lone cell's %s", keys[i], width, d[:12], prev[:12])
			}
			got[keys[i]] = d
		}
	}

	if *updateDigests {
		lines := make([]string, 0, len(got))
		for k, d := range got {
			lines = append(lines, k+" "+d)
		}
		sort.Strings(lines)
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) != 4 {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[strings.Join(fs[:3], " ")] = fs[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d cells, the grid has %d", digestFile, len(want), len(got))
	}
	for k, d := range got {
		if want[k] != d {
			t.Errorf("%s: Result digest %.12s, committed %.12s", k, d, want[k])
		}
	}
}
