package cluster

import (
	"testing"
	"testing/quick"
)

func parapluie() *Site {
	// 9 nodes of the paper's parapluie cluster: 2x6 cores, 48 GB.
	return New(Config{Name: "parapluie", Nodes: 9, CoresPerNode: 12, MemoryMBPerNode: 49152, SpeedFactor: 0.928})
}

func TestNewSite(t *testing.T) {
	s := parapluie()
	if s.NumNodes() != 9 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	for _, n := range s.Nodes() {
		if n.Cores != 12 || n.FreeCores() != 12 {
			t.Fatalf("node cores = %d, free %d; want 12 free of 12", n.Cores, n.FreeCores())
		}
		if n.SpeedFactor != 0.928 {
			t.Fatalf("node speed = %v", n.SpeedFactor)
		}
	}
}

func TestSpeedFactorDefaults(t *testing.T) {
	s := New(Config{Name: "x", Nodes: 1, CoresPerNode: 4, MemoryMBPerNode: 1024})
	if s.Nodes()[0].SpeedFactor != 1.0 {
		t.Fatalf("default speed = %v, want 1.0", s.Nodes()[0].SpeedFactor)
	}
}

func TestVMCapacityPaperShape(t *testing.T) {
	s := parapluie()
	// EC2-medium-like VM: 2 cores, 3.75 GB = 3840 MB.
	// Per node: min(12/2, 49152/3840) = min(6, 12) = 6 VMs; 9 nodes = 54.
	// The paper then caps hosting capacity at 50; capacity >= 50 must hold.
	cap := s.VMCapacity(2, 3840)
	if cap != 54 {
		t.Fatalf("VMCapacity = %d, want 54", cap)
	}
	if cap < 50 {
		t.Fatal("site cannot host the paper's 50-VM configuration")
	}
}

func TestVMCapacityDegenerate(t *testing.T) {
	if parapluie().VMCapacity(0, 100) != 0 {
		t.Fatal("zero-core VM capacity must be 0")
	}
}

func TestReserveRelease(t *testing.T) {
	n := &Node{ID: "n", Cores: 4, MemoryMB: 1000}
	if err := n.Reserve(2, 500); err != nil {
		t.Fatal(err)
	}
	if n.FreeCores() != 2 || n.FreeMemoryMB() != 500 {
		t.Fatalf("free = %d/%d", n.FreeCores(), n.FreeMemoryMB())
	}
	if err := n.Reserve(4, 100); err == nil {
		t.Fatal("over-reserve must fail")
	}
	// Failed reserve must not mutate.
	if n.FreeCores() != 2 {
		t.Fatal("failed reserve mutated node")
	}
	n.Release(2, 500)
	if n.FreeCores() != 4 || n.FreeMemoryMB() != 1000 {
		t.Fatal("release did not restore capacity")
	}
}

func TestReserveInvalid(t *testing.T) {
	n := &Node{ID: "n", Cores: 4, MemoryMB: 1000}
	if err := n.Reserve(0, 10); err == nil {
		t.Fatal("zero-core reserve must fail")
	}
	if err := n.Reserve(1, -5); err == nil {
		t.Fatal("negative-memory reserve must fail")
	}
}

func TestReleaseTooMuchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	n := &Node{ID: "n", Cores: 4, MemoryMB: 1000}
	n.Release(1, 1)
}

func TestFirstFit(t *testing.T) {
	s := New(Config{Name: "s", Nodes: 3, CoresPerNode: 4, MemoryMBPerNode: 1000})
	n, err := s.FirstFit(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != "s-n00" {
		t.Fatalf("FirstFit chose %s, want s-n00", n.ID)
	}
	if err := n.Reserve(4, 1000); err != nil {
		t.Fatal(err)
	}
	n2, err := s.FirstFit(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n2.ID != "s-n01" {
		t.Fatalf("FirstFit chose %s, want s-n01", n2.ID)
	}
}

func TestFitPoliciesExhaustion(t *testing.T) {
	s := New(Config{Name: "s", Nodes: 1, CoresPerNode: 2, MemoryMBPerNode: 100})
	if _, err := s.FirstFit(3, 50); err != ErrNoCapacity {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

// Property: a sequence of successful reservations never exceeds node
// capacity, and releasing everything restores the initial state.
func TestPropertyReserveReleaseConservation(t *testing.T) {
	f := func(requests []uint8) bool {
		n := &Node{ID: "p", Cores: 64, MemoryMB: 4096}
		type res struct{ c, m int }
		var accepted []res
		for _, rq := range requests {
			c := int(rq%8) + 1
			m := (int(rq%16) + 1) * 32
			if err := n.Reserve(c, m); err == nil {
				accepted = append(accepted, res{c, m})
			}
			if n.FreeCores() < 0 || n.FreeMemoryMB() < 0 {
				return false
			}
		}
		for _, r := range accepted {
			n.Release(r.c, r.m)
		}
		return n.FreeCores() == 64 && n.FreeMemoryMB() == 4096
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: VMCapacity equals the number of sequential FirstFit+Reserve
// successes for the same shape.
func TestPropertyVMCapacityMatchesFirstFit(t *testing.T) {
	f := func(nodes, cores, mem uint8) bool {
		nn := int(nodes%5) + 1
		cpn := int(cores%16) + 1
		mpn := (int(mem%16) + 1) * 256
		s := New(Config{Name: "p", Nodes: nn, CoresPerNode: cpn, MemoryMBPerNode: mpn})
		vmCores, vmMem := 2, 512
		want := s.VMCapacity(vmCores, vmMem)
		got := 0
		for {
			n, err := s.FirstFit(vmCores, vmMem)
			if err != nil {
				break
			}
			if err := n.Reserve(vmCores, vmMem); err != nil {
				return false
			}
			got++
			if got > want {
				return false
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
