package sim

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/workloads"
)

const reportDigestFile = "testdata/report_digests.txt"

// reportDigestParams is the tier-1 slice of the quick grid: every
// experiment at quick scale over two workloads (a graph kernel and a
// hash join), enough to run every figure's code path in seconds.
func reportDigestParams() ExpParams {
	return ExpParams{Params: QuickParams(), Workloads: []string{"BFS_KR", "HJ2"}}
}

// reportDigest is the SHA-256 of a report's JSON with the scheduler
// counters zeroed: Sched counts store hits and wall time, which depend
// on what ran before, not on what the experiment computed. Everything
// else — values, tables, notes and every cell's metric snapshot — is
// the experiment's result.
func reportDigest(t *testing.T, r *Report) string {
	t.Helper()
	r.Sched = SchedStats{}
	blob, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob))
}

// TestReportDigests pins every experiment's Report at quick scale to a
// committed SHA-256 digest, so "the quick grid's output is unchanged"
// is a test rather than a hand-run diff. Regenerate with
// `go test ./internal/sim -run TestReportDigests -update` only when the
// experiments are meant to change, and say so in the change log.
func TestReportDigests(t *testing.T) {
	t.Parallel()
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were generated on amd64; %s may fuse multiply-adds and change float bits", runtime.GOARCH)
	}
	// Every machine and window an experiment sweeps must also pass the
	// checks served jobs go through.
	eng := NewEngine(nil)
	run := func(cfgs []Config, specs []workloads.Spec, p Params) *ResultSet {
		if err := CheckParams(p); err != nil {
			t.Error(err)
		}
		for _, cfg := range cfgs {
			if err := CheckConfig(cfg); err != nil {
				t.Error(err)
			}
		}
		return eng.RunMatrix(cfgs, specs, p)
	}
	got := map[string]string{}
	for _, e := range Experiments() {
		got[e.ID] = reportDigest(t, e.Run(run, reportDigestParams()))
	}

	if *updateDigests {
		lines := make([]string, 0, len(got))
		for id, d := range got {
			lines = append(lines, id+" "+d)
		}
		sort.Strings(lines)
		if err := os.WriteFile(reportDigestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(reportDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) != 2 {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[fs[0]] = fs[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d experiments, the registry has %d", reportDigestFile, len(want), len(got))
	}
	for id, d := range got {
		if want[id] != d {
			t.Errorf("%s: Report digest %.12s, committed %.12s", id, d, want[id])
		}
	}
}
