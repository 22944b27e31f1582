package walker_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestOnlyTestsImportTheWalker keeps the walker out of production: no
// non-test package of the module may import it. Every MiniC stage, the
// file-scope initializers and GPU host capture run on the bytecode VM;
// the walker is the oracle its tests compare it against.
func TestOnlyTestsImportTheWalker(t *testing.T) {
	const walker = "repro/internal/interp/walker"
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(goTool, "list", "-f", "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}", "repro/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		pkgs++
		for _, imp := range fields[1:] {
			if imp == walker {
				t.Errorf("%s imports %s, which only tests may import", fields[0], walker)
			}
		}
	}
	if pkgs < 20 {
		t.Fatalf("go list reported %d packages; the module has more", pkgs)
	}
}
