// Package workloads implements every benchmark of the paper's evaluation
// (§V) as a mini-ISA kernel over a constructed memory image:
//
//   - the five GAP kernels (BC, BFS, CC, PR, SSSP) on five graph inputs
//     (KR, LJN, ORK, TW, UR);
//   - the HPC/database set: Camel, Graph500 seq-CSR, HashJoin-2/8,
//     Kangaroo, NAS-CG, NAS-IS, and HPCC randacc;
//   - SPEC CPU2017 proxy kernels for the no-vectorization-opportunity
//     study of Fig 14.
//
// Each kernel reproduces the memory-access structure that drives the
// paper's results — sequential offset walks, striding index loads, and
// data-dependent indirect accesses — and carries a functional self-check
// used by the test suite.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Scale controls working-set sizes. Working sets must exceed the 512 KiB
// L2 for the memory-bound regime of the paper to hold.
//
// The check tags bound what a job from outside the process may ask for
// (sim.CheckParams): 8 is the smallest power of two every kernel builds
// at, the upper bounds twice BenchScale.
type Scale struct {
	GraphNodes int   `check:"8,1048576"` // vertices per graph input (a power of two)
	Elems      int   `check:"8,8388608"` // element count for array-based kernels (a power of two)
	Seed       int64 // generator seed
}

// TinyScale is for functional tests: fast, fits in cache.
func TinyScale() Scale { return Scale{GraphNodes: 1 << 9, Elems: 1 << 10, Seed: 42} }

// BenchScale exceeds the L2 many times over (512 Ki-vertex graphs with
// ~8M edges, 4 Mi-element arrays); used by the full evaluation harness (a
// scaled-down stand-in for the paper's GB-size inputs, see DESIGN.md
// substitution 4). A full `svrsim all` at this scale needs ~2 GiB of RAM.
func BenchScale() Scale { return Scale{GraphNodes: 1 << 19, Elems: 1 << 22, Seed: 42} }

// Instance is a ready-to-run workload: program + initialized memory.
type Instance struct {
	Name string
	Prog *isa.Program
	Mem  *mem.Memory
	// Check validates the architectural result after the program ran to
	// completion (tests run it at TinyScale). Nil when not applicable.
	Check func(m *mem.Memory) error
}

// Spec describes one buildable workload.
type Spec struct {
	Name  string
	Group string // "gap", "hpcdb", "spec"
	Desc  string // one-line description for svrsim list
	Build func(sc Scale) *Instance
}

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workloads: duplicate " + s.Name)
	}
	registry[s.Name] = s
}

// Get returns the named workload spec.
func Get(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return s, nil
}

// Names returns all registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Group returns the specs of one group ("gap", "hpcdb", "spec") in a
// stable order.
func Group(group string) []Spec {
	var out []Spec
	for _, n := range Names() {
		if registry[n].Group == group {
			out = append(out, registry[n])
		}
	}
	return out
}

// Evaluation returns the paper's memory-latency-bound set (Fig 11/12):
// all GAP kernel x input pairs followed by the HPC-DB workloads.
func Evaluation() []Spec {
	return append(Group("gap"), Group("hpcdb")...)
}
