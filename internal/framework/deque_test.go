package framework

import (
	"math/rand"
	"testing"
)

func TestDequeFIFO(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 100; i++ {
		d.PushBack(i)
	}
	if d.Len() != 100 {
		t.Fatalf("len = %d", d.Len())
	}
	for i := 0; i < 100; i++ {
		if got := d.PopFront(); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("len = %d after drain", d.Len())
	}
}

func TestDequeFrontRequeue(t *testing.T) {
	var d Deque[string]
	d.PushBack("a")
	d.PushBack("b")
	d.PushFront("victim") // crash-requeue and resume go to the front
	if got := d.At(0); got != "victim" {
		t.Fatalf("front = %q", got)
	}
	if got := d.PopFront(); got != "victim" {
		t.Fatalf("pop = %q", got)
	}
	if d.At(0) != "a" || d.At(1) != "b" {
		t.Fatalf("rest = %q %q", d.At(0), d.At(1))
	}
}

// TestDequeMatchesSliceModel drives random operations against a plain
// slice reference model, exercising ring wraparound and growth.
func TestDequeMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var d Deque[int]
	var model []int
	for op := 0; op < 10000; op++ {
		switch k := rng.Intn(3); {
		case k == 0 || d.Len() == 0:
			v := rng.Int()
			d.PushBack(v)
			model = append(model, v)
		case k == 1:
			v := rng.Int()
			d.PushFront(v)
			model = append([]int{v}, model...)
		default:
			if got, want := d.PopFront(), model[0]; got != want {
				t.Fatalf("op %d: pop = %d, want %d", op, got, want)
			}
			model = model[1:]
		}
		if d.Len() != len(model) {
			t.Fatalf("op %d: len = %d, want %d", op, d.Len(), len(model))
		}
		for i, w := range model {
			if d.At(i) != w {
				t.Fatalf("op %d: at(%d) = %d, want %d", op, i, d.At(i), w)
			}
		}
	}
}

func TestDequeIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range must panic")
		}
	}()
	var d Deque[int]
	d.PushBack(1)
	d.At(1)
}

func TestSeqSetOrderAndRemove(t *testing.T) {
	var s SeqSet[string]
	s.Insert(2, "c")
	s.Insert(0, "a")
	s.Insert(1, "b")
	if got := s.Values(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("values = %v", got)
	}
	if got := s.Remove(1); got != "b" {
		t.Fatalf("removed = %q", got)
	}
	if got := s.Values(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("values = %v", got)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestSeqSetRemoveMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("removing a missing seq must panic")
		}
	}()
	var s SeqSet[int]
	s.Insert(1, 10)
	s.Remove(2)
}
