package framework_test

import (
	"errors"
	"testing"

	"meryn/internal/framework"
	"meryn/internal/framework/fwtest"
)

// attachMixed attaches private and cloud nodes interleaved and returns
// the attach order.
func attachMixed(t *framework.Nodes) []string {
	order := []string{"p0", "c0", "p1", "c1", "p2"}
	for _, id := range order {
		t.Attach(framework.Node{ID: id, Cloud: id[0] == 'c'})
	}
	return order
}

// TestNodesTakeOrder: Take hands out free nodes in attach order across
// both kinds, and a released node is taken again before later ones.
func TestNodesTakeOrder(t *testing.T) {
	var nodes framework.Nodes
	order := attachMixed(&nodes)
	fwtest.CheckIndexes(t, &nodes, order)
	for _, want := range []string{"p0", "c0", "p1"} {
		n, ok := nodes.Take("j")
		if !ok || n.ID != want {
			t.Fatalf("Take = %q, %v; want %q", n.ID, ok, want)
		}
		fwtest.CheckIndexes(t, &nodes, order)
	}
	nodes.Release("c0")
	fwtest.CheckIndexes(t, &nodes, order)
	for _, want := range []string{"c0", "c1", "p2"} {
		if n, _ := nodes.Take("k"); n.ID != want {
			t.Fatalf("Take = %q, want %q", n.ID, want)
		}
	}
	if n, ok := nodes.Take("k"); ok {
		t.Fatalf("Take on a full table = %q", n.ID)
	}
	if got := nodes.Node("p0").SpeedFactor; got != 1 {
		t.Fatalf("zero SpeedFactor attached as %g, want 1", got)
	}
}

// TestNodesErrors covers the unknown-node and busy-node paths, the
// idle-disabled transition of a released disabled node, and a Release
// of a detached ID.
func TestNodesErrors(t *testing.T) {
	var nodes framework.Nodes
	order := attachMixed(&nodes)
	if err := nodes.DisableNode("ghost"); !errors.Is(err, framework.ErrNodeUnknown) {
		t.Fatalf("DisableNode(ghost) = %v", err)
	}
	if err := nodes.RemoveNode("ghost"); !errors.Is(err, framework.ErrNodeUnknown) {
		t.Fatalf("RemoveNode(ghost) = %v", err)
	}
	if _, err := nodes.Detach("ghost"); !errors.Is(err, framework.ErrNodeUnknown) {
		t.Fatalf("Detach(ghost) = %v", err)
	}

	busy, _ := nodes.Take("job")
	if err := nodes.RemoveNode(busy.ID); !errors.Is(err, framework.ErrNodeBusy) {
		t.Fatalf("RemoveNode(busy) = %v", err)
	}
	if err := nodes.DisableNode(busy.ID); err != nil {
		t.Fatal(err)
	}
	fwtest.CheckIndexes(t, &nodes, order)
	nodes.Release(busy.ID)
	if got := nodes.IdleDisabledNodeIDs(); len(got) != 1 || got[0] != busy.ID {
		t.Fatalf("IdleDisabledNodeIDs = %v, want [%s]", got, busy.ID)
	}
	if err := nodes.RemoveNode(busy.ID); err != nil {
		t.Fatal(err)
	}
	fwtest.CheckIndexes(t, &nodes, order)

	crashed, _ := nodes.Take("job")
	if jobID, err := nodes.Detach(crashed.ID); err != nil || jobID != "job" {
		t.Fatalf("Detach = %q, %v; want job", jobID, err)
	}
	nodes.Release(crashed.ID) // the job frees its node list after the crash
	if _, ok := nodes.InspectNode(crashed.ID); ok {
		t.Fatal("released a detached node back into the table")
	}
	if nodes.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", nodes.NumNodes())
	}
	fwtest.CheckIndexes(t, &nodes, order)

	defer func() {
		if r := recover(); r == nil {
			t.Fatal("duplicate Attach did not panic")
		}
	}()
	nodes.Attach(framework.Node{ID: "c1"})
}
