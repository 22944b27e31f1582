// Package cluster defines the two evaluation platforms of the paper's
// Table 3 — Cluster1 (48 nodes, 20-core Xeon E5-2680, one Tesla K40 each,
// disks, FDR InfiniBand) and Cluster2 (32 nodes, 12-core Xeon X5560, three
// Tesla M2090s each, in-memory storage, QDR InfiniBand) — as parameter
// sets for the simulated HDFS, CPU, and GPU models.
package cluster

import (
	"repro/internal/gpu"
	"repro/internal/hdfs"
	"repro/internal/mr"
	"repro/internal/streaming"
)

// Setup is one evaluation platform.
type Setup struct {
	Name   string
	Slaves int
	// Node mirrors Table 3's slot rows: map slots == cores for maps, two
	// reduce slots, and one extra slot per GPU for GPU runs.
	Node mr.NodeConfig
	// CPU is the per-core timing model; Device the GPU model.
	CPU    streaming.CPUModel
	Device gpu.DeviceConfig
	// HDFS is the storage deployment. BlockSize here is the scaled
	// simulation block size; the paper's 256 MB blocks are scaled down so
	// functional task sampling stays tractable (see EXPERIMENTS.md).
	HDFS hdfs.Config
	// InMemory marks Cluster2's diskless (RAM-backed) storage.
	InMemory bool
	// DiskWriteGBs / HDFSWriteGBs parameterize task output writing.
	DiskWriteGBs float64
	HDFSWriteGBs float64
	// HeartbeatSec is the TaskTracker heartbeat interval.
	HeartbeatSec float64
}

// ScaledBlockSize is the simulation fileSplit size standing in for the
// paper's 256 MB HDFS blocks.
const ScaledBlockSize = 64 << 10

// Cluster1 returns the primary platform: 48 slaves, 20-core CPUs, one
// Kepler K40 per node, 500 GB disks, FDR InfiniBand, replication 3.
func Cluster1() Setup {
	return Setup{
		Name:   "Cluster1",
		Slaves: 48,
		Node:   mr.NodeConfig{MapSlots: 20, ReduceSlots: 2, GPUs: 1},
		CPU:    streaming.XeonE52680(),
		Device: gpu.TeslaK40(),
		HDFS: hdfs.Config{
			BlockSize:   ScaledBlockSize,
			Replication: 3,
			DataNodes:   48,
			DiskReadGBs: 0.45, // 500GB SATA-era disk
			NetworkGBs:  6.8,  // FDR InfiniBand
			SeekMS:      0.02, // scaled with the block size
		},
		DiskWriteGBs: 0.25,
		HDFSWriteGBs: 0.12,
		HeartbeatSec: 3,
	}
}

// Cluster2 returns the multi-GPU platform: 32 slaves, 12-core CPUs, three
// Fermi M2090s per node, in-memory storage (no disks), QDR InfiniBand,
// replication 1, 4 map slots per node.
func Cluster2() Setup {
	return Setup{
		Name:   "Cluster2",
		Slaves: 32,
		Node:   mr.NodeConfig{MapSlots: 4, ReduceSlots: 2, GPUs: 3},
		CPU:    streaming.XeonX5560(),
		Device: gpu.TeslaM2090(),
		HDFS: hdfs.Config{
			BlockSize:   ScaledBlockSize,
			Replication: 1,
			DataNodes:   32,
			DiskReadGBs: 3.0,   // RAM-backed filesystem
			NetworkGBs:  4.0,   // QDR InfiniBand
			SeekMS:      0.002, // scaled with the block size
		},
		InMemory:     true,
		DiskWriteGBs: 2.5,
		HDFSWriteGBs: 1.8,
		HeartbeatSec: 3,
	}
}

// WithSlaves returns a copy of the setup shrunk (or grown) to n slave
// nodes, keeping the HDFS datanode count in step and clamping replication
// to the cluster size (small fault-tolerance and test runs).
func (s Setup) WithSlaves(n int) Setup {
	s.Slaves = n
	s.HDFS.DataNodes = n
	if s.HDFS.Replication > n {
		s.HDFS.Replication = n
	}
	return s
}

// CPUOnlyNode returns the node config for baseline Hadoop runs (no GPU
// slots).
func (s Setup) CPUOnlyNode() mr.NodeConfig {
	n := s.Node
	n.GPUs = 0
	return n
}
