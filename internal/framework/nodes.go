package framework

import (
	"errors"
	"fmt"
)

// Errors returned by the dedicated-node table.
var (
	ErrNodeExists  = errors.New("framework: node already attached")
	ErrNodeUnknown = errors.New("framework: unknown node")
	ErrNodeBusy    = errors.New("framework: node hosts a job")
)

// nodeState is the table's record of one node, and the NodeRef Attach
// returns for it.
type nodeState struct {
	node     Node
	disabled bool
	dropped  bool   // removed from the table (Detach, RemoveNode)
	jobID    string // "" when idle
	entry    IndexEntry
}

// Status implements NodeRef: a node is busy while it hosts a job.
func (ns *nodeState) Status() (NodeStatus, bool) {
	if ns.dropped {
		return NodeStatus{}, false
	}
	return NodeStatus{Busy: ns.jobID != "", Disabled: ns.disabled, Cloud: ns.node.Cloud}, true
}

// Nodes is the node table of a framework that dedicates each node to at
// most one job at a time: a batch job's gang, a service replica, a
// function instance. Free and idle-disabled nodes live in attach-ordered
// indexes maintained on every transition, so selection, counts and
// visits never rescan the table.
//
// A framework embeds Nodes to get the node half of Framework
// (DisableNode, RemoveNode, NumNodes, the free/idle-disabled listings,
// InspectNode and VisitNodeJobs). It implements AddNode
// with Attach and FailNode with Detach, and moves nodes between free
// and busy with Take and Release. The zero value is an empty table.
type Nodes struct {
	nodes map[string]*nodeState

	// attachSeq stamps nodes in attach order; the indexes keep that
	// order so node selection is deterministic and attach-ordered.
	attachSeq uint64
	free      NodeIndex // enabled nodes hosting no job
	idleDis   NodeIndex // disabled nodes hosting no job
}

// Attach adds a free node and returns the table's record of it. A
// non-positive SpeedFactor becomes 1. Attaching a duplicate ID panics:
// it indicates a Cluster Manager bookkeeping bug.
func (t *Nodes) Attach(n Node) NodeRef {
	if _, dup := t.nodes[n.ID]; dup {
		panic(fmt.Sprintf("%v: %s", ErrNodeExists, n.ID))
	}
	if n.SpeedFactor <= 0 {
		n.SpeedFactor = 1.0
	}
	if t.nodes == nil {
		t.nodes = make(map[string]*nodeState)
	}
	ns := &nodeState{node: n}
	ns.entry.Init(n.ID, t.attachSeq, n.Cloud)
	t.attachSeq++
	t.nodes[n.ID] = ns
	t.free.Insert(&ns.entry)
	return ns
}

// Detach forcibly removes a node, busy or not, and returns the job it
// hosted ("" when idle). It is the table half of FailNode; the caller
// deals with the job.
func (t *Nodes) Detach(id string) (jobID string, err error) {
	ns, ok := t.nodes[id]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNodeUnknown, id)
	}
	ns.entry.Unlink()
	ns.dropped = true
	delete(t.nodes, id)
	return ns.jobID, nil
}

// Take assigns the first free node in attach order, across both kinds,
// to jobID and returns it, or false when no node is free. The Node is
// the attached value (SpeedFactor normalized), so a job that keeps it
// reads its node's speed and kind without a lookup.
func (t *Nodes) Take(jobID string) (Node, bool) {
	e := t.free.First()
	if e == nil {
		return Node{}, false
	}
	ns := t.nodes[e.ID()]
	ns.entry.Unlink()
	ns.jobID = jobID
	return ns.node, true
}

// Release marks nodes idle again and re-indexes them. IDs no longer
// attached (a node that crashed while its job held it) are skipped.
func (t *Nodes) Release(ids ...string) {
	for _, id := range ids {
		ns, ok := t.nodes[id]
		if !ok {
			continue
		}
		ns.jobID = ""
		if ns.disabled {
			t.idleDis.Insert(&ns.entry)
		} else {
			t.free.Insert(&ns.entry)
		}
	}
}

// FreeLen returns the number of free nodes of both kinds.
func (t *Nodes) FreeLen() int { return t.free.Len() }

// DisableNode implements Framework. A disabled node hosting a job keeps
// it until the job releases the node; no new work is assigned to it.
func (t *Nodes) DisableNode(id string) error {
	ns, ok := t.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, id)
	}
	if !ns.disabled {
		ns.disabled = true
		if ns.jobID == "" {
			ns.entry.Unlink()
			t.idleDis.Insert(&ns.entry)
		}
	}
	return nil
}

// RemoveNode implements Framework.
func (t *Nodes) RemoveNode(id string) error {
	ns, ok := t.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, id)
	}
	if ns.jobID != "" {
		return fmt.Errorf("%w: %s hosts %s", ErrNodeBusy, id, ns.jobID)
	}
	ns.entry.Unlink()
	ns.dropped = true
	delete(t.nodes, id)
	return nil
}

// NumNodes implements Framework.
func (t *Nodes) NumNodes() int { return len(t.nodes) }

// FreeNodeIDs implements Framework.
func (t *Nodes) FreeNodeIDs() []string { return t.free.CollectN(nil, -1) }

// FreeNodeCount implements Framework.
func (t *Nodes) FreeNodeCount(cloud bool) int { return t.free.Count(cloud) }

// VisitFreeNodes implements Framework.
func (t *Nodes) VisitFreeNodes(cloud bool, visit func(id string) bool) {
	t.free.Visit(cloud, visit)
}

// IdleDisabledNodeIDs implements Framework.
func (t *Nodes) IdleDisabledNodeIDs() []string { return t.idleDis.CollectN(nil, -1) }

// InspectNode implements Inspector.
func (t *Nodes) InspectNode(id string) (NodeStatus, bool) {
	ns, ok := t.nodes[id]
	if !ok {
		return NodeStatus{}, false
	}
	return ns.Status()
}

// VisitNodeJobs implements NodeJobVisitor: a node hosts at most one job.
func (t *Nodes) VisitNodeJobs(nodeID string, visit func(jobID string) bool) {
	if ns, ok := t.nodes[nodeID]; ok && ns.jobID != "" {
		visit(ns.jobID)
	}
}
