package cluster

import (
	"testing"
)

func TestCluster1MatchesTable3(t *testing.T) {
	c := Cluster1()
	if c.Slaves != 48 {
		t.Errorf("slaves = %d, want 48", c.Slaves)
	}
	if c.Node.MapSlots != 20 || c.Node.ReduceSlots != 2 || c.Node.GPUs != 1 {
		t.Errorf("node = %+v", c.Node)
	}
	if c.HDFS.Replication != 3 {
		t.Errorf("replication = %d, want 3", c.HDFS.Replication)
	}
	if c.HDFS.DataNodes != 48 {
		t.Errorf("datanodes = %d", c.HDFS.DataNodes)
	}
	if c.Device.Name != "Tesla K40 (Kepler)" {
		t.Errorf("device = %q", c.Device.Name)
	}
	if c.InMemory {
		t.Error("Cluster1 has disks")
	}
	if err := c.HDFS.Validate(); err != nil {
		t.Errorf("HDFS config invalid: %v", err)
	}
	if err := c.Device.Validate(); err != nil {
		t.Errorf("device config invalid: %v", err)
	}
}

func TestCluster2MatchesTable3(t *testing.T) {
	c := Cluster2()
	if c.Slaves != 32 {
		t.Errorf("slaves = %d, want 32", c.Slaves)
	}
	if c.Node.MapSlots != 4 || c.Node.GPUs != 3 {
		t.Errorf("node = %+v", c.Node)
	}
	if c.HDFS.Replication != 1 {
		t.Errorf("replication = %d, want 1", c.HDFS.Replication)
	}
	if !c.InMemory {
		t.Error("Cluster2 is diskless (in-memory)")
	}
	if c.Device.Name != "Tesla M2090 (Fermi)" {
		t.Errorf("device = %q", c.Device.Name)
	}
	// In-memory storage must be much faster than Cluster1's disks.
	if c.HDFS.DiskReadGBs <= Cluster1().HDFS.DiskReadGBs {
		t.Error("in-memory reads should beat disk reads")
	}
}

func TestCPUOnlyNode(t *testing.T) {
	c := Cluster1()
	n := c.CPUOnlyNode()
	if n.GPUs != 0 {
		t.Errorf("CPUOnlyNode GPUs = %d", n.GPUs)
	}
	if n.MapSlots != c.Node.MapSlots {
		t.Error("CPUOnlyNode changed map slots")
	}
	if c.Node.GPUs != 1 {
		t.Error("CPUOnlyNode mutated the setup")
	}
}

func TestScaledBlockSizeApplied(t *testing.T) {
	if Cluster1().HDFS.BlockSize != ScaledBlockSize || Cluster2().HDFS.BlockSize != ScaledBlockSize {
		t.Error("scaled block size not applied")
	}
}
