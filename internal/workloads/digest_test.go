package workloads

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/graphs"
	"repro/internal/mem"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/image_digests.txt from the current code")

const imageDigestFile = "testdata/image_digests.txt"

// digestScales are the scales whose images are pinned. "quick" mirrors
// sim.QuickParams' scale (this package cannot import sim).
var digestScales = []struct {
	name string
	sc   Scale
}{
	{"tiny", TinyScale()},
	{"quick", Scale{GraphNodes: 1 << 16, Elems: 1 << 18}},
}

var digestSeeds = []int64{42, 7}

// imageDigest is the SHA-256 of a workload image: every instruction's
// fields, then the allocation cursor and the memory bytes [0, Brk).
func imageDigest(inst *Instance) string {
	h := sha256.New()
	var buf [8]byte
	for _, in := range inst.Prog.Code {
		h.Write([]byte{byte(in.Op), byte(in.Rd), byte(in.Ra), byte(in.Rb), in.Size})
		binary.LittleEndian.PutUint64(buf[:], uint64(in.Imm))
		h.Write(buf[:])
	}
	brk := inst.Mem.Brk()
	binary.LittleEndian.PutUint64(buf[:], brk)
	h.Write(buf[:])
	page := make([]byte, mem.PageSize)
	for addr := uint64(0); addr < brk; addr += mem.PageSize {
		n := min(brk-addr, mem.PageSize)
		inst.Mem.ReadBytes(addr, page[:n])
		h.Write(page[:n])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// csrDigest is the SHA-256 of a CSR graph's vertex count, offsets and
// neighbor lists.
func csrDigest(g *graphs.CSR) string {
	h := sha256.New()
	for _, vs := range [][]uint32{{uint32(g.NumNodes)}, g.Offsets, g.Neighbors} {
		binary.Write(h, binary.LittleEndian, vs) // a hash.Hash never fails a write
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// benchGraphKey names the one BenchScale input pinned by its CSR: the
// Kronecker graph of BFS_KR at paper scale, too slow to build under
// -short and too large to lay out for every kernel.
const benchGraphKey = "bench 42 graph:KR"

// TestImageDigests pins every registered workload's image — program and
// initial memory — at TinyScale and quick scale for two seeds, plus the
// BenchScale Kronecker CSR, to committed SHA-256 digests. Unlike
// TestDeterministicBuilds, which compares two builds of one binary, this
// catches a generator whose draw sequence drifted. Regenerate with
// `go test ./internal/workloads -run TestImageDigests -update` only when
// the inputs are meant to change.
func TestImageDigests(t *testing.T) {
	got := map[string]string{}
	for _, ds := range digestScales {
		for _, seed := range digestSeeds {
			sc := ds.sc
			sc.Seed = seed
			for _, name := range Names() {
				got[fmt.Sprintf("%s %d %s", ds.name, seed, name)] = imageDigest(registry[name].Build(sc))
			}
		}
	}
	if testing.Short() {
		if *updateDigests {
			t.Fatal("-update needs the BenchScale graph; run without -short")
		}
	} else {
		bs := BenchScale()
		got[benchGraphKey] = csrDigest(graphs.Build(graphs.KR, bs.GraphNodes, bs.Seed))
	}

	if *updateDigests {
		lines := make([]string, 0, len(got))
		for k, d := range got {
			lines = append(lines, k+" "+d)
		}
		sort.Strings(lines)
		if err := os.MkdirAll(filepath.Dir(imageDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(imageDigestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(imageDigestFile)
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
	if testing.Short() {
		delete(want, benchGraphKey)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d images, the registry builds %d", imageDigestFile, len(want), len(got))
	}
	for k, d := range got {
		if want[k] != d {
			t.Errorf("%s: image digest %.12s, committed %.12s", k, d, want[k])
		}
	}
}
