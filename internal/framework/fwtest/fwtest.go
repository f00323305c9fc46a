// Package fwtest provides shared invariant checks for framework
// implementations. The batch, MapReduce, service and serverless test
// suites, and the tests of the shared node and fleet tables, all need
// the same property — the maintained free/idle-disabled node indexes
// must agree with a brute-force recount of the node table. CheckIndexes
// is the one shared implementation, built on framework.Inspector so it
// needs no access to framework internals; framework-specific extras
// (MapReduce slot accounting) stay in their own suites.
package fwtest

import (
	"fmt"
	"testing"

	"meryn/internal/framework"
)

// Target is what CheckIndexes drives: the free/idle-disabled listings
// of framework.Framework plus per-node introspection. Every framework
// satisfies it, and so does a bare framework.Nodes table.
type Target interface {
	framework.Inspector
	FreeNodeIDs() []string
	IdleDisabledNodeIDs() []string
	FreeNodeCount(cloud bool) int
	VisitFreeNodes(cloud bool, visit func(id string) bool)
}

// CheckIndexes compares the maintained free/idle-disabled indexes
// against a brute-force recomputation from per-node status, using the
// attach order tracked by the test: FreeNodeIDs and IdleDisabledNodeIDs
// must list exactly the recomputed nodes in attach order, and per-kind
// FreeNodeCount/VisitFreeNodes must agree with the kind-split recount.
func CheckIndexes(t testing.TB, fw Target, attachOrder []string) {
	t.Helper()
	var wantFree, wantIdleDis []string
	wantKind := map[bool][]string{}
	for _, id := range attachOrder {
		st, ok := fw.InspectNode(id)
		if !ok {
			continue // removed or failed
		}
		switch {
		case st.Busy:
		case st.Disabled:
			wantIdleDis = append(wantIdleDis, id)
		default:
			wantFree = append(wantFree, id)
			wantKind[st.Cloud] = append(wantKind[st.Cloud], id)
		}
	}
	if got := fw.FreeNodeIDs(); fmt.Sprint(got) != fmt.Sprint(wantFree) {
		t.Fatalf("FreeNodeIDs = %v, want %v", got, wantFree)
	}
	if got := fw.IdleDisabledNodeIDs(); fmt.Sprint(got) != fmt.Sprint(wantIdleDis) {
		t.Fatalf("IdleDisabledNodeIDs = %v, want %v", got, wantIdleDis)
	}
	for _, cloud := range []bool{false, true} {
		if got := fw.FreeNodeCount(cloud); got != len(wantKind[cloud]) {
			t.Fatalf("FreeNodeCount(%v) = %d, want %d", cloud, got, len(wantKind[cloud]))
		}
		var visited []string
		fw.VisitFreeNodes(cloud, func(id string) bool { visited = append(visited, id); return true })
		if fmt.Sprint(visited) != fmt.Sprint(wantKind[cloud]) {
			t.Fatalf("VisitFreeNodes(%v) = %v, want %v", cloud, visited, wantKind[cloud])
		}
	}
}
