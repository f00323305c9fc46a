// Package fwtest provides shared invariant checks for framework
// implementations. The batch, MapReduce, service and serverless test
// suites, and the tests of the shared node and fleet tables, all need
// the same property — the maintained free-node index must agree with a
// brute-force recount of the node table. CheckIndexes is the one shared
// implementation, built on framework.Inspector so it needs no access to
// framework internals; framework-specific extras (MapReduce slot
// accounting) stay in their own suites. FreeNodes and JobNodes list
// what the allocation-free visitors visit, for tests that compare
// listings.
package fwtest

import (
	"fmt"
	"testing"

	"meryn/internal/framework"
)

// Target is what CheckIndexes drives: the free-node reads of
// framework.Framework plus per-node introspection. Every framework
// satisfies it, and so does a bare framework.Nodes table.
type Target interface {
	framework.Inspector
	FreeNodeCount(cloud bool) int
	VisitFreeNodes(cloud bool, visit func(id string) bool)
}

// FreeNodes lists the free nodes of one kind in attach order, as
// VisitFreeNodes visits them.
func FreeNodes(fw Target, cloud bool) []string {
	var out []string
	fw.VisitFreeNodes(cloud, func(id string) bool { out = append(out, id); return true })
	return out
}

// JobNodes lists the nodes a running job occupies, in the framework's
// VisitJobNodes order, or VisitJobNodes' error.
func JobNodes(fw framework.Framework, jobID string) ([]string, error) {
	var out []string
	err := fw.VisitJobNodes(jobID, func(id string) bool { out = append(out, id); return true })
	return out, err
}

// CheckIndexes compares the maintained free-node index against a
// brute-force recomputation from per-node status, using the attach
// order tracked by the test: per kind, FreeNodeCount and VisitFreeNodes
// must agree with the recount, in attach order.
func CheckIndexes(t testing.TB, fw Target, attachOrder []string) {
	t.Helper()
	want := map[bool][]string{}
	for _, id := range attachOrder {
		st, ok := fw.InspectNode(id)
		if !ok || st.Busy {
			continue // removed, failed or busy
		}
		want[st.Cloud] = append(want[st.Cloud], id)
	}
	for _, cloud := range []bool{false, true} {
		if got := fw.FreeNodeCount(cloud); got != len(want[cloud]) {
			t.Fatalf("FreeNodeCount(%v) = %d, want %d", cloud, got, len(want[cloud]))
		}
		if got := FreeNodes(fw, cloud); fmt.Sprint(got) != fmt.Sprint(want[cloud]) {
			t.Fatalf("VisitFreeNodes(%v) = %v, want %v", cloud, got, want[cloud])
		}
	}
}
