package framework

import (
	"reflect"
	"testing"
)

func entries(specs ...struct {
	id    string
	seq   uint64
	cloud bool
}) []*IndexEntry {
	out := make([]*IndexEntry, len(specs))
	for i, s := range specs {
		e := &IndexEntry{}
		e.Init(s.id, s.seq, s.cloud)
		out[i] = e
	}
	return out
}

func spec(id string, seq uint64, cloud bool) struct {
	id    string
	seq   uint64
	cloud bool
} {
	return struct {
		id    string
		seq   uint64
		cloud bool
	}{id, seq, cloud}
}

func TestNodeIndexAttachOrderAcrossKinds(t *testing.T) {
	// Interleaved kinds: merged iteration must follow attach sequence.
	es := entries(
		spec("p0", 0, false), spec("c1", 1, true), spec("p2", 2, false),
		spec("c3", 3, true), spec("p4", 4, false),
	)
	var x NodeIndex
	// Insert out of order: the index re-sorts by seq within each kind.
	for _, i := range []int{3, 0, 4, 1, 2} {
		x.Insert(es[i])
	}
	if x.Len() != 5 || x.Count(false) != 3 || x.Count(true) != 2 {
		t.Fatalf("counts: len=%d private=%d cloud=%d", x.Len(), x.Count(false), x.Count(true))
	}
	// Popping First in turn reads the merged attach order, as Take does.
	var got []string
	for e := x.First(); e != nil; e = x.First() {
		got = append(got, e.ID())
		e.Unlink()
	}
	want := []string{"p0", "c1", "p2", "c3", "p4"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("First in turn = %v, want %v", got, want)
	}
	if x.Len() != 0 {
		t.Fatalf("len after popping every entry = %d", x.Len())
	}
}

// visitAll lists one kind's entries in attach order.
func visitAll(x *NodeIndex, cloud bool) []string {
	var out []string
	x.Visit(cloud, func(id string) bool { out = append(out, id); return true })
	return out
}

func TestNodeIndexUnlinkAndReinsert(t *testing.T) {
	es := entries(spec("a", 0, false), spec("b", 1, false), spec("c", 2, false))
	var x NodeIndex
	for _, e := range es {
		x.Insert(e)
	}
	es[0].Unlink() // head leaves (job start)
	es[2].Unlink()
	es[2].Unlink() // double unlink is a no-op
	if got := visitAll(&x, false); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("after unlink = %v", got)
	}
	x.Insert(es[2]) // re-enter out of order (job finish)
	x.Insert(es[0])
	if got := visitAll(&x, false); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("after reinsert = %v", got)
	}
	es[0].Unlink() // a re-entered entry unlinks again
	if got := visitAll(&x, false); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("after unlinking the re-entered head = %v", got)
	}
}

func TestNodeIndexVisitEarlyStop(t *testing.T) {
	es := entries(spec("a", 0, false), spec("b", 1, false), spec("c", 2, false))
	var x NodeIndex
	for _, e := range es {
		x.Insert(e)
	}
	var seen []string
	x.Visit(false, func(id string) bool {
		seen = append(seen, id)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []string{"a", "b"}) {
		t.Fatalf("visited = %v", seen)
	}
	x.Visit(true, func(string) bool { t.Fatal("no cloud entries"); return false })
}

func TestNodeIndexDoubleInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double insert must panic")
		}
	}()
	e := &IndexEntry{}
	e.Init("a", 0, false)
	var x NodeIndex
	x.Insert(e)
	x.Insert(e)
}
