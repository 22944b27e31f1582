package testkit

import (
	"bytes"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/interp/walker"
	"repro/internal/kv"
	"repro/internal/streaming"
)

// stageRun is everything one streaming stage exposes on one execution
// core: stdout, exit status, error text, statement steps, and the abstract
// cost that the CPU timing model turns into virtual time.
type stageRun struct {
	out   string
	code  int
	err   string
	steps int64
	cost  interp.CountingSink
}

// runStage executes one compiled streaming stage over input on the
// bytecode VM, or on the tree-walker (interp.Machine.Run) as the oracle.
func runStage(f *streaming.Filter, input []byte, onVM bool) stageRun {
	var r stageRun
	var out bytes.Buffer
	m := interp.New(f.Prog, interp.Options{Stdin: bytes.NewReader(input), Stdout: &out, Cost: &r.cost})
	var err error
	if onVM {
		r.code, err = bytecode.NewVM(m, f.Code).Run()
	} else {
		r.code, err = walker.Run(m)
	}
	if err != nil {
		r.err = err.Error()
	}
	r.out, r.steps = out.String(), m.Steps()
	return r
}

// checkStageParity compiles one generated program and runs each of its
// streaming stages on the VM and on the tree-walker: the map stage over
// the program input, the combine and reduce stages over every non-empty
// sorted partition of the map output (what a CPU map task and a reducer
// feed them). Every stageRun field must match exactly — the cost parity
// that keeps every virtual time and golden what the walker recorded.
func checkStageParity(t *testing.T, p Program, disableOpt bool) {
	t.Helper()
	cj, err := CompileOpt(p, disableOpt)
	if err != nil {
		t.Fatalf("seed %d: compile: %v\nmap source:\n%s", p.Seed, err, p.MapSrc)
	}
	stage := func(name, src string, f *streaming.Filter, input []byte) stageRun {
		vm, walker := runStage(f, input, true), runStage(f, input, false)
		if vm != walker {
			t.Fatalf("seed %d (-O0=%v): %s stage: VM and tree-walker disagree\nvm:     code=%d err=%q steps=%d cost=%+v\nwalker: code=%d err=%q steps=%d cost=%+v\nvm out:\n%s\nwalker out:\n%s\nsource:\n%s",
				p.Seed, disableOpt, name, vm.code, vm.err, vm.steps, vm.cost, walker.code, walker.err, walker.steps, walker.cost,
				head(vm.out), head(walker.out), src)
		}
		return vm
	}
	mapRun := stage("map", p.MapSrc, cj.MapF, p.Input)
	if cj.CombineF == nil && cj.ReduceF == nil {
		return
	}
	pairs, err := streaming.ParseKVLines(mapRun.out, cj.Schema)
	if err != nil {
		t.Fatalf("seed %d: map output: %v", p.Seed, err)
	}
	n := cj.Program.NumReducers
	if n < 1 {
		n = 1
	}
	parts := make([][]kv.Pair, n)
	for _, pr := range pairs {
		i := kv.Partition(pr.Key, n)
		parts[i] = append(parts[i], pr)
	}
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		kv.SortPairs(part)
		in := streaming.RenderKVLines(part)
		if cj.CombineF != nil {
			stage("combine", p.CombineSrc, cj.CombineF, in)
		}
		if cj.ReduceF != nil {
			stage("reduce", p.ReduceSrc, cj.ReduceF, in)
		}
	}
}

// TestVMMatchesTreeWalkerAcrossSeeds pins the execution-core equivalence
// claim at the stage level: every streaming stage of every seed in the
// generated corpus produces identical output, exit status, error text,
// step count, and cost totals on the register-bytecode VM and on the AST
// tree-walker. A failing seed reproduces with
// `go run ./cmd/hdgen -seed N -check`.
func TestVMMatchesTreeWalkerAcrossSeeds(t *testing.T) {
	for seed := uint64(0); seed < NumDifferentialSeeds; seed++ {
		checkStageParity(t, Generate(seed), false)
	}
}

// TestVMMatchesTreeWalkerUnoptimized is the same equivalence with the SSA
// optimizer off (-O0): the bytecode compiler must lower the raw AST as
// faithfully as the optimized one.
func TestVMMatchesTreeWalkerUnoptimized(t *testing.T) {
	for seed := uint64(0); seed < NumMetamorphicSeeds; seed++ {
		checkStageParity(t, Generate(seed), true)
	}
}
