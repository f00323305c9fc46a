// Package cluster models physical compute sites: nodes with core and
// memory capacities and a relative CPU speed factor. The paper's private
// resources (Grid'5000 parapluie, AMD Opteron 6164 HE @1.7 GHz) and its
// "public cloud" site (edel, Xeon E5520 @2.27 GHz) differ in per-core
// speed, which is what produces the 1550 s vs 1670 s execution times for
// the same application. We capture that with SpeedFactor.
package cluster

import (
	"errors"
	"fmt"
)

// Node is one physical machine.
type Node struct {
	ID          string
	Cores       int
	MemoryMB    int
	SpeedFactor float64 // relative CPU speed; 1.0 is the reference speed

	usedCores int
	usedMemMB int
}

// FreeCores returns cores not committed to VMs.
func (n *Node) FreeCores() int { return n.Cores - n.usedCores }

// FreeMemoryMB returns memory not committed to VMs.
func (n *Node) FreeMemoryMB() int { return n.MemoryMB - n.usedMemMB }

// CanHost reports whether the node can accept a VM of the given shape.
func (n *Node) CanHost(cores, memMB int) bool {
	return n.FreeCores() >= cores && n.FreeMemoryMB() >= memMB
}

// Reserve commits resources for a VM. It returns an error when the node
// cannot host the request; the node is unchanged in that case.
func (n *Node) Reserve(cores, memMB int) error {
	if cores <= 0 || memMB <= 0 {
		return fmt.Errorf("cluster: invalid reservation %d cores / %d MB", cores, memMB)
	}
	if !n.CanHost(cores, memMB) {
		return fmt.Errorf("cluster: node %s cannot host %d cores / %d MB (free %d/%d)",
			n.ID, cores, memMB, n.FreeCores(), n.FreeMemoryMB())
	}
	n.usedCores += cores
	n.usedMemMB += memMB
	return nil
}

// Release returns previously reserved resources.
func (n *Node) Release(cores, memMB int) {
	n.usedCores -= cores
	n.usedMemMB -= memMB
	if n.usedCores < 0 || n.usedMemMB < 0 {
		panic(fmt.Sprintf("cluster: node %s released more than reserved", n.ID))
	}
}

// Site is a homogeneous collection of nodes (one Grid'5000 cluster in the
// paper's deployment).
type Site struct {
	Name  string
	nodes []*Node
}

// Config describes a homogeneous site.
type Config struct {
	Name            string
	Nodes           int
	CoresPerNode    int
	MemoryMBPerNode int
	SpeedFactor     float64
}

// ErrNoCapacity is returned when no node in a site can host a request.
var ErrNoCapacity = errors.New("cluster: no node with sufficient capacity")

// New builds a site from a config. Zero or negative node counts yield an
// empty site, which is valid (a pure-cloud deployment).
func New(cfg Config) *Site {
	s := &Site{Name: cfg.Name}
	speed := cfg.SpeedFactor
	if speed <= 0 {
		speed = 1.0
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, &Node{
			ID:          fmt.Sprintf("%s-n%02d", cfg.Name, i),
			Cores:       cfg.CoresPerNode,
			MemoryMB:    cfg.MemoryMBPerNode,
			SpeedFactor: speed,
		})
	}
	return s
}

// Nodes returns the site's nodes.
func (s *Site) Nodes() []*Node { return s.nodes }

// NumNodes returns the node count.
func (s *Site) NumNodes() int { return len(s.nodes) }

// VMCapacity returns how many VMs of the given shape the site could host
// when empty — used to validate configured hosting capacities (the paper
// fixes 50 VMs on 9 parapluie nodes).
func (s *Site) VMCapacity(cores, memMB int) int {
	if cores <= 0 || memMB <= 0 {
		return 0
	}
	total := 0
	for _, n := range s.nodes {
		byCores := n.Cores / cores
		byMem := n.MemoryMB / memMB
		if byMem < byCores {
			total += byMem
		} else {
			total += byCores
		}
	}
	return total
}

// FirstFit returns the first node able to host the request, or
// ErrNoCapacity.
func (s *Site) FirstFit(cores, memMB int) (*Node, error) {
	for _, n := range s.nodes {
		if n.CanHost(cores, memMB) {
			return n, nil
		}
	}
	return nil, ErrNoCapacity
}
