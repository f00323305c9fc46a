package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Hooks observe the store's I/O latencies — the durability tax the
// control plane pays per request. All fields are optional; nil funcs
// are skipped. Durations are seconds, ready for latency histograms.
type Hooks struct {
	// JournalAppend fires after each durable append with the total
	// append time and the fsync share of it.
	JournalAppend func(totalSeconds, fsyncSeconds float64)
	// SnapshotSeal fires after each seal's snapshot write
	// (marshal + write + fsync + rename + dir fsync).
	SnapshotSeal func(seconds float64)
}

// Store is one state directory: the append-only journal, which holds
// every record since the directory was created, plus the seal of the
// state after the last sealed record. All methods are safe for
// concurrent use, though the control plane serializes state-changing
// requests anyway.
type Store struct {
	mu   sync.Mutex
	dir  string
	meta Meta
	j    *Journal

	recs    []Record  // the history Open read
	lastSeq int64     // seq of the last durable record
	seal    *Snapshot // last durable seal (nil before the first)
	torn    bool      // a damaged final journal record was dropped at Open
	hooks   Hooks
}

// Open binds a state directory, creating it when absent. An existing
// directory must carry the same configuration fingerprint; its journal
// may end in a torn record (dropped and truncated away), but damage
// anywhere else refuses to load rather than replay a gapped history.
// So does a seal that covers records the journal no longer holds.
func Open(dir string, meta Meta) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seal, err := loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if seal != nil && seal.Meta != meta {
		return nil, fmt.Errorf("durable: state dir %s was written by seed=%d policy=%s, refusing to recover with seed=%d policy=%s",
			dir, seal.Meta.Seed, seal.Meta.Policy, meta.Seed, meta.Policy)
	}

	jpath := filepath.Join(dir, journalName)
	recs, clean, torn, err := readJournal(jpath)
	if err != nil {
		return nil, err
	}
	if torn {
		// Drop the damaged bytes so the next append starts on a clean
		// frame boundary instead of gluing onto a partial line.
		if err := os.Truncate(jpath, clean); err != nil {
			return nil, fmt.Errorf("durable: truncating torn journal tail: %w", err)
		}
	}
	for i, r := range recs {
		if r.Seq != int64(i)+1 {
			return nil, fmt.Errorf("durable: journal gap: record seq %d follows %d", r.Seq, i)
		}
	}
	lastSeq := int64(len(recs))
	// A seal is written only once its records are durable, so a seal
	// past the journal's end means the journal lost records.
	if seal != nil && seal.LastSeq > lastSeq {
		return nil, fmt.Errorf("durable: the seal covers records through seq %d but the journal ends at seq %d",
			seal.LastSeq, lastSeq)
	}
	j, err := openJournal(jpath)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, meta: meta, j: j, recs: recs, lastSeq: lastSeq, seal: seal, torn: torn}, nil
}

// Records returns the history Open read, seq 1 onwards. Records
// appended since are on disk only. The caller must not modify it.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs
}

// TailLen is the number of records journaled since the last seal —
// the count the server's periodic seal trigger watches.
func (s *Store) TailLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seal == nil {
		return int(s.lastSeq)
	}
	return int(s.lastSeq - s.seal.LastSeq)
}

// SetHooks installs latency observers. Call before serving traffic;
// the hooks must be safe for use from whichever goroutine appends.
func (s *Store) SetHooks(h Hooks) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = h
	s.j.onAppend = nil
	if fn := h.JournalAppend; fn != nil {
		s.j.onAppend = func(total, fsync time.Duration) {
			fn(total.Seconds(), fsync.Seconds())
		}
	}
}

// TornTail reports whether Open dropped a damaged final journal record.
func (s *Store) TornTail() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.torn
}

// LastCheckpoint returns the seal Open recovered or Checkpoint last
// wrote (nil before the first). The caller must not mutate it.
func (s *Store) LastCheckpoint() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seal
}

// Append stamps the record with the next sequence number and makes it
// durable. The returned record carries the assigned Seq. Once a write
// or fsync has failed, every Append fails with that error: the store
// must be reopened.
func (s *Store) Append(r Record) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.Seq = s.lastSeq + 1
	if err := s.j.Append(r); err != nil {
		return Record{}, err
	}
	s.lastSeq = r.Seq
	return r, nil
}

// Checkpoint seals the state after the last journaled record: timeS,
// nextID and digest (core.Session.Digest) must describe the session
// once that record was applied, so that recovery can check its replay
// against them. The journal is left as it is.
func (s *Store) Checkpoint(timeS float64, nextID int64, digest string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seal := &Snapshot{
		Meta:    s.meta,
		TimeS:   timeS,
		NextID:  nextID,
		Digest:  digest,
		LastSeq: s.lastSeq,
	}
	start := time.Now()
	if err := writeSnapshot(s.dir, seal); err != nil {
		return err
	}
	if s.hooks.SnapshotSeal != nil {
		s.hooks.SnapshotSeal(time.Since(start).Seconds())
	}
	s.seal = seal
	return nil
}

// Close releases the journal file. The store stays readable on disk.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Close()
}
