// Package hdfs simulates the Hadoop Distributed File System as HeteroDoop
// uses it: files are stored as replicated blocks on datanodes, map tasks
// read one fileSplit each (with line-boundary adjustment exactly like
// Hadoop's LineRecordReader), and read times follow a locality-aware
// bandwidth model. Data is held in memory; times are computed, never
// measured.
package hdfs

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Config describes the simulated HDFS deployment (Table 3 rows: block
// size, replication factor) plus the storage/network bandwidth model.
type Config struct {
	// BlockSize is the fileSplit size in bytes (the paper uses 256 MB; the
	// scaled-down experiments use smaller blocks, recorded in
	// EXPERIMENTS.md).
	BlockSize int64
	// Replication is the block replica count (3 on Cluster1, 1 on
	// Cluster2).
	Replication int
	// DataNodes is the number of slave nodes storing blocks.
	DataNodes int
	// DiskReadGBs is the per-node storage read bandwidth. For Cluster2
	// ("no disks") it is a memory-filesystem speed.
	DiskReadGBs float64
	// NetworkGBs is the per-flow network bandwidth (InfiniBand).
	NetworkGBs float64
	// SeekMS is the fixed per-read positioning cost in milliseconds.
	SeekMS float64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.BlockSize <= 0 || c.Replication <= 0 || c.DataNodes <= 0 {
		return fmt.Errorf("hdfs: invalid config: block=%d repl=%d nodes=%d", c.BlockSize, c.Replication, c.DataNodes)
	}
	if c.Replication > c.DataNodes {
		return fmt.Errorf("hdfs: replication %d exceeds datanodes %d", c.Replication, c.DataNodes)
	}
	if c.DiskReadGBs <= 0 || c.NetworkGBs <= 0 {
		return fmt.Errorf("hdfs: bandwidths must be positive")
	}
	return nil
}

// Split is one fileSplit: the unit a map task processes.
type Split struct {
	Path   string
	Index  int
	Offset int64
	Length int64
	// Locations are the datanode ids holding the split's block.
	Locations []int
}

type file struct {
	data   []byte
	blocks []blockMeta
}

type blockMeta struct {
	offset   int64
	length   int64
	replicas []int
}

// FS is a simulated HDFS namespace (namenode + datanodes).
type FS struct {
	cfg   Config
	files map[string]*file
	rng   *sim.RNG
	next  int // round-robin primary placement cursor
}

// New builds an empty filesystem. Placement decisions are deterministic
// for a given seed.
func New(cfg Config, seed uint64) (*FS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FS{cfg: cfg, files: map[string]*file{}, rng: sim.NewRNG(seed)}, nil
}

// Config returns the deployment configuration.
func (fs *FS) Config() Config { return fs.cfg }

// Write stores data at path, splitting it into blocks and placing
// replicas: the primary replica rotates round-robin across datanodes and
// the remaining replicas go to distinct pseudo-random nodes, approximating
// Hadoop's placement (no rack topology).
func (fs *FS) Write(path string, data []byte) error {
	if _, exists := fs.files[path]; exists {
		return fmt.Errorf("hdfs: path %q already exists", path)
	}
	f := &file{data: append([]byte(nil), data...)}
	for off := int64(0); off < int64(len(data)) || (off == 0 && len(data) == 0); off += fs.cfg.BlockSize {
		length := fs.cfg.BlockSize
		if off+length > int64(len(data)) {
			length = int64(len(data)) - off
		}
		replicas := fs.placeReplicas()
		f.blocks = append(f.blocks, blockMeta{offset: off, length: length, replicas: replicas})
		if len(data) == 0 {
			break
		}
	}
	fs.files[path] = f
	return nil
}

func (fs *FS) placeReplicas() []int {
	primary := fs.next % fs.cfg.DataNodes
	fs.next++
	replicas := []int{primary}
	used := map[int]bool{primary: true}
	for len(replicas) < fs.cfg.Replication {
		n := fs.rng.Intn(fs.cfg.DataNodes)
		if !used[n] {
			used[n] = true
			replicas = append(replicas, n)
		}
	}
	sort.Ints(replicas[1:])
	return replicas
}

// Size returns a file's byte length.
func (fs *FS) Size(path string) (int64, error) {
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("hdfs: no such file %q", path)
	}
	return int64(len(f.data)), nil
}

// ReadAll returns a file's full contents.
func (fs *FS) ReadAll(path string) ([]byte, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("hdfs: no such file %q", path)
	}
	return append([]byte(nil), f.data...), nil
}

// FileSplits lists the fileSplits of a path, one per block.
func (fs *FS) FileSplits(path string) ([]Split, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("hdfs: no such file %q", path)
	}
	splits := make([]Split, len(f.blocks))
	for i, b := range f.blocks {
		splits[i] = Split{
			Path: path, Index: i, Offset: b.offset, Length: b.length,
			Locations: append([]int(nil), b.replicas...),
		}
	}
	return splits, nil
}

// ReadSplit returns the records of a split with Hadoop LineRecordReader
// semantics: a split that does not start at offset 0 skips the partial
// first line (it belongs to the previous split), and every split reads
// past its end to finish its last line.
func (fs *FS) ReadSplit(sp Split) ([]byte, error) {
	f, ok := fs.files[sp.Path]
	if !ok {
		return nil, fmt.Errorf("hdfs: no such file %q", sp.Path)
	}
	data := f.data
	start := sp.Offset
	if start > 0 {
		// Skip to just past the first newline at or after start-1.
		i := start - 1
		for i < int64(len(data)) && data[i] != '\n' {
			i++
		}
		start = i + 1
	}
	end := sp.Offset + sp.Length
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	// Extend to the end of the record straddling the boundary.
	for end < int64(len(data)) && data[end-1] != '\n' {
		end++
	}
	if start >= end {
		return nil, nil
	}
	return append([]byte(nil), data[start:end]...), nil
}

// IsLocal reports whether node holds a replica of the split.
func (sp Split) IsLocal(node int) bool {
	for _, n := range sp.Locations {
		if n == node {
			return true
		}
	}
	return false
}

// ReadTime models fetching a split from the given node: a local read pays
// disk bandwidth only; a remote read pays the serving node's disk plus a
// network hop (the streamed fetch pipelines imperfectly) and an extra
// request round trip.
func (fs *FS) ReadTime(sp Split, node int) float64 {
	seek := fs.cfg.SeekMS / 1000
	bytes := float64(sp.Length)
	disk := bytes / (fs.cfg.DiskReadGBs * 1e9)
	if sp.IsLocal(node) {
		return seek + disk
	}
	net := bytes / (fs.cfg.NetworkGBs * 1e9)
	return 2*seek + disk + net
}
