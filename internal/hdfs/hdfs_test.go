package hdfs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func testFS(t *testing.T, blockSize int64, repl, nodes int) *FS {
	t.Helper()
	fs, err := New(Config{
		BlockSize: blockSize, Replication: repl, DataNodes: nodes,
		DiskReadGBs: 0.5, NetworkGBs: 2.0, SeekMS: 5,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{BlockSize: 0, Replication: 1, DataNodes: 1, DiskReadGBs: 1, NetworkGBs: 1},
		{BlockSize: 64, Replication: 5, DataNodes: 3, DiskReadGBs: 1, NetworkGBs: 1},
		{BlockSize: 64, Replication: 1, DataNodes: 3},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestWriteAndReadAll(t *testing.T) {
	fs := testFS(t, 64, 3, 8)
	data := []byte(strings.Repeat("hello world line\n", 100))
	if err := fs.Write("/data/input", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("/data/input")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data round trip failed")
	}
	size, _ := fs.Size("/data/input")
	if size != int64(len(data)) {
		t.Fatalf("size = %d", size)
	}
}

func TestDoubleWriteRejected(t *testing.T) {
	fs := testFS(t, 64, 1, 2)
	fs.Write("/a", []byte("x"))
	if err := fs.Write("/a", []byte("y")); err == nil {
		t.Fatal("double write accepted")
	}
}

func TestSplitCountAndSizes(t *testing.T) {
	fs := testFS(t, 100, 2, 4)
	data := make([]byte, 350)
	fs.Write("/f", data)
	splits, err := fs.FileSplits("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("splits = %d, want 4", len(splits))
	}
	var total int64
	for i, sp := range splits {
		total += sp.Length
		if len(sp.Locations) != 2 {
			t.Errorf("split %d has %d replicas", i, len(sp.Locations))
		}
		if sp.Index != i {
			t.Errorf("split %d index = %d", i, sp.Index)
		}
	}
	if total != 350 {
		t.Fatalf("split lengths sum to %d", total)
	}
	if splits[3].Length != 50 {
		t.Fatalf("last split length = %d", splits[3].Length)
	}
}

func TestReplicaPlacementDistinctAndSpread(t *testing.T) {
	fs := testFS(t, 10, 3, 8)
	data := make([]byte, 800) // 80 blocks
	fs.Write("/f", data)
	splits, _ := fs.FileSplits("/f")
	primaries := map[int]int{}
	for _, sp := range splits {
		seen := map[int]bool{}
		for _, n := range sp.Locations {
			if n < 0 || n >= 8 {
				t.Fatalf("replica on bogus node %d", n)
			}
			if seen[n] {
				t.Fatalf("duplicate replica node %d in %v", n, sp.Locations)
			}
			seen[n] = true
		}
		primaries[sp.Locations[0]]++
	}
	// Round-robin primaries: all 8 nodes used.
	if len(primaries) != 8 {
		t.Fatalf("primaries on %d nodes, want 8", len(primaries))
	}
}

func TestReadSplitLineBoundaries(t *testing.T) {
	fs := testFS(t, 10, 1, 2)
	// Lines of 7 bytes: "line-N\n"; block size 10 cuts mid-line.
	var b bytes.Buffer
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "line-%d\n", i)
	}
	data := b.Bytes()
	fs.Write("/lines", data)
	splits, _ := fs.FileSplits("/lines")

	var reassembled []byte
	totalLines := 0
	for _, sp := range splits {
		part, err := fs.ReadSplit(sp)
		if err != nil {
			t.Fatal(err)
		}
		// Every split's content must be whole lines.
		if len(part) > 0 && part[len(part)-1] != '\n' {
			t.Fatalf("split %d does not end at a line boundary: %q", sp.Index, part)
		}
		for _, line := range strings.Split(strings.TrimRight(string(part), "\n"), "\n") {
			if line == "" {
				continue
			}
			if !strings.HasPrefix(line, "line-") {
				t.Fatalf("split %d yielded partial line %q", sp.Index, line)
			}
			totalLines++
		}
		reassembled = append(reassembled, part...)
	}
	if totalLines != 10 {
		t.Fatalf("total lines = %d, want 10 (no loss, no duplication)", totalLines)
	}
	if !bytes.Equal(reassembled, data) {
		t.Fatal("splits do not reassemble the file")
	}
}

func TestReadSplitPropertyNoLossNoDup(t *testing.T) {
	if err := quick.Check(func(seed uint8, nLines uint8) bool {
		fs := testFS(t, 37, 1, 3)
		var b bytes.Buffer
		n := int(nLines%50) + 1
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "r%d-%s\n", i, strings.Repeat("x", int(seed)%20))
		}
		fs.Write("/f", b.Bytes())
		splits, _ := fs.FileSplits("/f")
		var all []byte
		for _, sp := range splits {
			part, err := fs.ReadSplit(sp)
			if err != nil {
				return false
			}
			all = append(all, part...)
		}
		return bytes.Equal(all, b.Bytes())
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalReadFasterThanRemote(t *testing.T) {
	fs := testFS(t, 1<<20, 1, 4)
	data := make([]byte, 1<<20)
	fs.Write("/f", data)
	splits, _ := fs.FileSplits("/f")
	sp := splits[0]
	local := sp.Locations[0]
	remote := (local + 1) % 4
	if fs.ReadTime(sp, local) >= fs.ReadTime(sp, remote) {
		t.Fatalf("local read (%v) not faster than remote (%v)",
			fs.ReadTime(sp, local), fs.ReadTime(sp, remote))
	}
}

func TestPlacementDeterministic(t *testing.T) {
	build := func() []Split {
		fs := testFS(t, 10, 2, 6)
		fs.Write("/f", make([]byte, 200))
		s, _ := fs.FileSplits("/f")
		return s
	}
	a, b := build(), build()
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			t.Fatalf("placement differs at split %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMissingFileErrors(t *testing.T) {
	fs := testFS(t, 10, 1, 2)
	if _, err := fs.ReadAll("/none"); err == nil {
		t.Error("ReadAll of missing file succeeded")
	}
	if _, err := fs.FileSplits("/none"); err == nil {
		t.Error("FileSplits of missing file succeeded")
	}
	if _, err := fs.Size("/none"); err == nil {
		t.Error("Size of missing file succeeded")
	}
	if _, err := fs.ReadSplit(Split{Path: "/none"}); err == nil {
		t.Error("ReadSplit of missing file succeeded")
	}
}

func TestIsLocal(t *testing.T) {
	sp := Split{Locations: []int{2, 5}}
	if !sp.IsLocal(2) || !sp.IsLocal(5) || sp.IsLocal(3) {
		t.Fatal("IsLocal wrong")
	}
}

func TestEmptyFile(t *testing.T) {
	fs := testFS(t, 10, 1, 2)
	if err := fs.Write("/empty", nil); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.FileSplits("/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 || splits[0].Length != 0 {
		t.Fatalf("empty file splits = %v", splits)
	}
	part, err := fs.ReadSplit(splits[0])
	if err != nil || part != nil {
		t.Fatalf("empty split read = %v, %v", part, err)
	}
}
