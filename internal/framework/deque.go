package framework

// Deque is a growable ring-buffer double-ended queue. Front pops and
// front pushes — the hot operations of a FIFO job queue with
// crash-requeue and resume-with-priority — are O(1), where the slice
// splices they replace were O(queue length). The zero value is ready to
// use.
type Deque[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

func (d *Deque[T]) grow() {
	if d.n < len(d.buf) {
		return
	}
	buf := make([]T, max(8, 2*len(d.buf)))
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = buf
	d.head = 0
}

// PushBack appends v at the back.
func (d *Deque[T]) PushBack(v T) {
	d.grow()
	d.buf[(d.head+d.n)%len(d.buf)] = v
	d.n++
}

// PushFront prepends v at the front.
func (d *Deque[T]) PushFront(v T) {
	d.grow()
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = v
	d.n++
}

// At returns the i-th element from the front.
func (d *Deque[T]) At(i int) T {
	if i < 0 || i >= d.n {
		panic("framework: deque index out of range")
	}
	return d.buf[(d.head+i)%len(d.buf)]
}

// PopFront removes and returns the front element.
func (d *Deque[T]) PopFront() T {
	v := d.At(0)
	var zero T
	d.buf[d.head] = zero
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return v
}
