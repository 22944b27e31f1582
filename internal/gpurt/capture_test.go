package gpurt

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/interp"
)

// TestHostCaptureStopsAtLaunchPoint requires the map kernel to see the
// host's variables as main leaves them at the mapreduce region, as the
// CPU path does, and not as main leaves them at its end: each mapper
// writes its firstprivate base after the region. The optimized variant
// computes base in a loop and keeps the later write live, so neither is
// folded away.
func TestHostCaptureStopsAtLaunchPoint(t *testing.T) {
	const region = `
	#pragma mapreduce mapper key(key) value(one) firstprivate(base) kvpairs(1) blocks(1) threads(32)
	while ((read = getline(&line, &n, stdin)) != -1) {
		key = atoi(line) + base;
		one = 1;
		printf("%d\t%d\n", key, one);
	}
`
	const head = `
int main() {
	int key, one, read, base;
	char *line;
	size_t n = 100;
	line = (char*) malloc(100);
`
	for _, tc := range []struct {
		name, src string
		o0        bool
	}{
		{"O0", head + "\tbase = 7;\n" + region + "\tbase = 1000;\n\tfree(line);\n\treturn 0;\n}\n", true},
		{"O2", head + "\tbase = 0;\n\tfor (int k = 0; k < 7; k++) base = base + 1;\n" + region +
			"\tbase = base * 100;\n\tif (base == read) printf(\"x\");\n\tfree(line);\n\treturn 0;\n}\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comp, err := compiler.CompileOpts(tc.src, compiler.Options{DisableOpt: tc.o0})
			if err != nil {
				t.Fatal(err)
			}
			cpu, gpu := cpuAndGPU(t, comp, "1\n2\n")
			if want := []string{"8\t1", "9\t1"}; strings.Join(cpu, "|") != strings.Join(want, "|") {
				t.Fatalf("CPU emitted %q, want %q", cpu, want)
			}
			if strings.Join(gpu, "|") != strings.Join(cpu, "|") {
				t.Fatalf("GPU emitted %q, CPU %q", gpu, cpu)
			}
		})
	}
}

// cpuAndGPU runs comp's mapper on the CPU path (the host program on the
// VM) and as one GPU task on input, and returns both outputs sorted.
func cpuAndGPU(t *testing.T, comp *compiler.Compiled, input string) (cpu, gpu []string) {
	t.Helper()
	var out bytes.Buffer
	m := interp.New(comp.HostProg, interp.Options{Stdin: strings.NewReader(input), Stdout: &out})
	if _, err := bytecode.NewVM(m, comp.VM).Run(); err != nil {
		t.Fatal(err)
	}
	cpu = strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	res, err := RunTask(devK40(t), comp, nil, []byte(input), TaskConfig{Opts: AllOptimizations()})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.MapOutput {
		gpu = append(gpu, p.Text())
	}
	sort.Strings(cpu)
	sort.Strings(gpu)
	return cpu, gpu
}

// TestHostCaptureInCallee puts the mapreduce region in a function that
// main calls, so the launch point is reached one frame down: the kernel
// sees the callee's firstprivate parameter and a global.
func TestHostCaptureInCallee(t *testing.T) {
	const src = `
int offset = 7;
void mapper(int base) {
	int key, one, read;
	char *line;
	size_t n = 100;
	line = (char*) malloc(100);
	#pragma mapreduce mapper key(key) value(one) firstprivate(base) kvpairs(1) blocks(1) threads(32)
	while ((read = getline(&line, &n, stdin)) != -1) {
		key = atoi(line) + base + offset;
		one = 1;
		printf("%d\t%d\n", key, one);
	}
	free(line);
}
int main() {
	mapper(7);
	return 0;
}
`
	comp, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cpu, gpu := cpuAndGPU(t, comp, "1\n2\n")
	if want := []string{"15\t1", "16\t1"}; strings.Join(cpu, "|") != strings.Join(want, "|") {
		t.Fatalf("CPU emitted %q, want %q", cpu, want)
	}
	if strings.Join(gpu, "|") != strings.Join(cpu, "|") {
		t.Fatalf("GPU emitted %q, CPU %q", gpu, cpu)
	}
}

// TestHostCaptureInsideIf puts the mapreduce region inside an if in main.
func TestHostCaptureInsideIf(t *testing.T) {
	const src = `
int main() {
	int key, one, read, base;
	char *line;
	size_t n = 100;
	line = (char*) malloc(100);
	base = 3;
	if (base > 0) {
		#pragma mapreduce mapper key(key) value(one) firstprivate(base) kvpairs(1) blocks(1) threads(32)
		while ((read = getline(&line, &n, stdin)) != -1) {
			key = atoi(line) + base;
			one = 1;
			printf("%d\t%d\n", key, one);
		}
	}
	return 0;
}
`
	comp, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cpu, gpu := cpuAndGPU(t, comp, "1\n2\n")
	if want := []string{"4\t1", "5\t1"}; strings.Join(cpu, "|") != strings.Join(want, "|") {
		t.Fatalf("CPU emitted %q, want %q", cpu, want)
	}
	if strings.Join(gpu, "|") != strings.Join(cpu, "|") {
		t.Fatalf("GPU emitted %q, CPU %q", gpu, cpu)
	}
}

// TestHostCaptureNeverReached requires a GPU task to fail when main ends,
// by exit() or by an early return, before it reaches the region.
func TestHostCaptureNeverReached(t *testing.T) {
	const region = `
	#pragma mapreduce mapper key(key) value(one) kvpairs(1) blocks(1) threads(32)
	while ((read = getline(&line, &n, stdin)) != -1) {
		key = atoi(line);
		one = 1;
		printf("%d\t%d\n", key, one);
	}
	return 0;
}
`
	const head = `
int main() {
	int key, one, read;
	char *line;
	size_t n = 100;
	line = (char*) malloc(100);
`
	for _, tc := range []struct{ name, stop string }{
		{"exit", "\texit(0);\n"},
		{"return", "\tif (n > 0) return 1;\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comp, err := compiler.Compile(head + tc.stop + region)
			if err != nil {
				t.Fatal(err)
			}
			_, err = RunTask(devK40(t), comp, nil, []byte("1\n2\n"), TaskConfig{Opts: AllOptimizations()})
			if err == nil || !strings.Contains(err.Error(), "never reached its mapreduce region") {
				t.Fatalf("RunTask error %v, want one that says the region was never reached", err)
			}
		})
	}
}

// TestHostCaptureCalleeReadsLaunchGlobals requires a kernel callee to
// read a global as main leaves it at the launch point, as the region and
// the CPU path do, and not as its initializer leaves it. Two threadblocks
// run the callee, so two block goroutines read the launch's globals.
func TestHostCaptureCalleeReadsLaunchGlobals(t *testing.T) {
	const src = `
int scale = 1;
int helper(int x) { return x * scale; }
int main() {
	int key, one, read;
	char *line;
	size_t n = 100;
	line = (char*) malloc(100);
	scale = 5;
	#pragma mapreduce mapper key(key) value(one) kvpairs(1) blocks(2) threads(32)
	while ((read = getline(&line, &n, stdin)) != -1) {
		key = helper(atoi(line));
		one = 1;
		printf("%d\t%d\n", key, one);
	}
	free(line);
	return 0;
}
`
	for _, tc := range []struct {
		name string
		o0   bool
	}{{"O0", true}, {"O2", false}} {
		t.Run(tc.name, func(t *testing.T) {
			comp, err := compiler.CompileOpts(src, compiler.Options{DisableOpt: tc.o0})
			if err != nil {
				t.Fatal(err)
			}
			cpu, gpu := cpuAndGPU(t, comp, "1\n2\n")
			if want := []string{"10\t1", "5\t1"}; strings.Join(cpu, "|") != strings.Join(want, "|") {
				t.Fatalf("CPU emitted %q, want %q", cpu, want)
			}
			if strings.Join(gpu, "|") != strings.Join(cpu, "|") {
				t.Fatalf("GPU emitted %q, CPU %q", gpu, cpu)
			}
		})
	}
}

// TestHostCaptureCalleeWritesStayPerThread: a thread's copy of the
// launch's globals holds its own copy of every object a global reaches
// through a pointer (another global, an object an initializer allocated,
// a buffer main allocated, one of main's locals), so a callee's write
// through the pointer stays the thread's, as a direct write does, and two
// threadblock goroutines never write a host object (go test -race). Each
// thread here takes one record, so the GPU emits the records themselves,
// while the CPU accumulates across records (ROADMAP item 6: kernel code
// that writes a global).
func TestHostCaptureCalleeWritesStayPerThread(t *testing.T) {
	for _, tc := range []struct{ name, globals, setup, ret string }{
		{"global", "int x = 0;\nint *p = &x;", "", "x"},
		{"initializer-calloc", "int *p = (int*) calloc(1, sizeof(int));", "", "*p"},
		{"main-malloc", "int *p;", "p = (int*) malloc(sizeof(int));\n\t*p = 0;", "*p"},
		{"main-local", "int *p;", "p = &acc;", "*p"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.globals + `
int bump(int v) { *p = *p + v; return ` + tc.ret + `; }
int main() {
	int key, one, read, acc = 0;
	char *line;
	size_t n = 100;
	line = (char*) malloc(100);
	` + tc.setup + `
	#pragma mapreduce mapper key(key) value(one) kvpairs(1) blocks(2) threads(32)
	while ((read = getline(&line, &n, stdin)) != -1) {
		key = bump(atoi(line));
		one = 1;
		printf("%d\t%d\n", key, one);
	}
	free(line);
	return 0;
}
`
			comp, err := compiler.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			cpu, gpu := cpuAndGPU(t, comp, "1\n2\n3\n4\n")
			if want := []string{"1\t1", "10\t1", "3\t1", "6\t1"}; strings.Join(cpu, "|") != strings.Join(want, "|") {
				t.Fatalf("CPU emitted %q, want %q", cpu, want)
			}
			if want := []string{"1\t1", "2\t1", "3\t1", "4\t1"}; strings.Join(gpu, "|") != strings.Join(want, "|") {
				t.Fatalf("GPU emitted %q, want %q", gpu, want)
			}
		})
	}
}
