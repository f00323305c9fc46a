package framework

// This file provides the intrusive node index shared by the framework
// implementations. Every scheduling round used to rescan the full node
// table to find free nodes; the index instead keeps that set maintained
// on every state transition, ordered by attach sequence and segregated
// by node kind (cloud vs private), so lookups, counts and visits run in
// time proportional to the answer and allocate nothing.
//
// Invariants (see DESIGN.md "Scheduler indexing invariants"):
//
//   - An IndexEntry belongs to at most one list at a time; Unlink is a
//     safe no-op for an unlinked entry.
//   - Each kind list is kept sorted by attach sequence, so merged
//     iteration reproduces exactly the attach-order scans it replaced
//     (node selection — and therefore simulation output — is unchanged).
//   - The entry is embedded in the framework's per-node state: moving a
//     node between indexes (free, a MapReduce usage level) and "busy"
//     (unlinked) costs pointer updates only.

// IndexEntry is the intrusive hook embedded in a framework's per-node
// state. Initialize it with Init at attach time; it must not be copied
// once linked.
type IndexEntry struct {
	id    string
	seq   uint64
	cloud bool

	prev, next *IndexEntry
	list       *indexList
}

// Init stamps the entry's identity. seq must be unique and increase with
// attach order; it defines iteration order everywhere.
func (e *IndexEntry) Init(id string, seq uint64, cloud bool) {
	e.id, e.seq, e.cloud = id, seq, cloud
	e.prev, e.next, e.list = nil, nil, nil
}

// ID returns the node ID the entry indexes.
func (e *IndexEntry) ID() string { return e.id }

// Unlink removes the entry from whichever index holds it (no-op when
// unlinked).
func (e *IndexEntry) Unlink() {
	if e.list == nil {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.list.n--
	e.prev, e.next, e.list = nil, nil, nil
}

// indexList is one seq-ordered doubly-linked list with a sentinel root.
type indexList struct {
	root IndexEntry
	n    int
}

func (l *indexList) lazyInit() {
	if l.root.next == nil {
		l.root.next = &l.root
		l.root.prev = &l.root
	}
}

// insert places e in seq order. Entries usually re-enter near their
// original neighbours, so the backwards walk from the tail is short in
// practice; the worst case is O(list length), still allocation-free.
func (l *indexList) insert(e *IndexEntry) {
	l.lazyInit()
	at := l.root.prev
	for at != &l.root && at.seq > e.seq {
		at = at.prev
	}
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
	e.list = l
	l.n++
}

// first returns the minimum-seq entry, or nil when empty.
func (l *indexList) first() *IndexEntry {
	if l.n == 0 {
		return nil
	}
	return l.root.next
}

func kindOf(cloud bool) int {
	if cloud {
		return 1
	}
	return 0
}

// NodeIndex is a maintained set of nodes ordered by attach sequence and
// segregated by kind. The zero value is ready to use.
type NodeIndex struct {
	kinds [2]indexList // [0] private, [1] cloud
}

// Insert adds an entry (it must be unlinked).
func (x *NodeIndex) Insert(e *IndexEntry) {
	if e.list != nil {
		panic("framework: inserting a linked index entry")
	}
	x.kinds[kindOf(e.cloud)].insert(e)
}

// Len returns the total entry count across kinds.
func (x *NodeIndex) Len() int { return x.kinds[0].n + x.kinds[1].n }

// Count returns the entry count for one kind.
func (x *NodeIndex) Count(cloud bool) int { return x.kinds[kindOf(cloud)].n }

// First returns the minimum-seq entry across both kinds, or nil.
func (x *NodeIndex) First() *IndexEntry {
	p, c := x.kinds[0].first(), x.kinds[1].first()
	switch {
	case p == nil:
		return c
	case c == nil:
		return p
	case p.seq < c.seq:
		return p
	default:
		return c
	}
}

// Visit calls visit for each entry of one kind in attach order, stopping
// early when visit returns false.
func (x *NodeIndex) Visit(cloud bool, visit func(id string) bool) {
	l := &x.kinds[kindOf(cloud)]
	if l.n == 0 {
		return
	}
	for e := l.root.next; e != &l.root; e = e.next {
		if !visit(e.id) {
			return
		}
	}
}
