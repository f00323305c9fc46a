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
		if n.SpeedFactor != 1 || n.Cloud != (want[0] == 'c') {
			t.Fatalf("Take = %+v; want %s attached with SpeedFactor 0 read as 1", n, want)
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
}

// TestNodeRefStatus: the record Attach returns reads what InspectNode
// reads while the node is attached, through take and release, and
// reports false once Detach or RemoveNode has dropped the node.
func TestNodeRefStatus(t *testing.T) {
	var nodes framework.Nodes
	ids := []string{"p0", "c0", "p1", "c1"}
	refs := make([]framework.NodeRef, len(ids))
	for i, id := range ids {
		refs[i] = nodes.Attach(framework.Node{ID: id, Cloud: id[0] == 'c'})
	}
	agree := func(what string) {
		t.Helper()
		for i, id := range ids {
			st, ok := refs[i].Status()
			want, wantOK := nodes.InspectNode(id)
			if st != want || ok != wantOK {
				t.Fatalf("after %s: %s ref reads %+v, %v; InspectNode reads %+v, %v", what, id, st, ok, want, wantOK)
			}
		}
	}
	agree("attach")
	busy, _ := nodes.Take("job") // p0
	agree("take")
	if st, ok := refs[0].Status(); !ok || !st.Busy || st.Cloud {
		t.Fatalf("taken p0 reads %+v, %v; want busy private", st, ok)
	}
	if st, ok := refs[1].Status(); !ok || st.Busy || !st.Cloud {
		t.Fatalf("free c0 reads %+v, %v; want idle cloud", st, ok)
	}
	nodes.Release(busy.ID)
	agree("release")

	if _, err := nodes.Detach("p0"); err != nil {
		t.Fatal(err)
	}
	if err := nodes.RemoveNode("c0"); err != nil {
		t.Fatal(err)
	}
	agree("detach and remove")
	for i, id := range ids {
		if _, ok := refs[i].Status(); ok != (i >= 2) {
			t.Fatalf("%s ref reports attached=%v, want %v", id, ok, i >= 2)
		}
	}
}

// TestNodesErrors covers the unknown-node and busy-node paths, the
// removal of a busy node once its job releases it, and a Release of a
// detached ID.
func TestNodesErrors(t *testing.T) {
	var nodes framework.Nodes
	order := attachMixed(&nodes)
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
	fwtest.CheckIndexes(t, &nodes, order)
	nodes.Release(busy.ID)
	if got := fwtest.FreeNodes(&nodes, false); len(got) != 3 || got[0] != busy.ID {
		t.Fatalf("free private nodes = %v, want %s back first", got, busy.ID)
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
