package mr_test

import (
	"testing"

	"repro/internal/mr"
	"repro/internal/workload"
)

// benchMapCore times one benchmark's map stage — a single sequential
// interpretation pass over the input — on the bytecode VM. These are the
// map-stage microbenchmarks behind the EXPERIMENTS.md VM-vs-AST table;
// LR and BS are its compute-heavy anchors.
func benchMapCore(b *testing.B, bench *workload.Benchmark) {
	input := bench.Gen(7, 32<<10)
	cj, err := mr.CompileJob(bench.JobFor(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cj.MapF.Run(input); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLRMapVM(b *testing.B) { benchMapCore(b, workload.LinearRegression()) }
func BenchmarkBSMapVM(b *testing.B) { benchMapCore(b, workload.BlackScholes()) }
