package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"time"
)

// A journal is NDJSON with per-line CRC framing:
//
//	{"c":<crc32-IEEE of the record bytes>,"r":{...record...}}\n
//
// Appends are a single write followed by fsync, so a crash can only
// leave a *prefix* of the final line behind (possibly with no trailing
// newline). readJournal treats exactly that — an unparsable or
// CRC-mismatched final line — as a torn tail and reports how many clean
// bytes precede it; the store truncates the file there before
// appending again. A bad line with clean lines after it cannot be a
// torn write and fails the load.
type frame struct {
	C uint32          `json:"c"`
	R json.RawMessage `json:"r"`
}

// Journal is an append-only, fsync'd record log.
type Journal struct {
	f    *os.File
	path string

	// broken is the write or fsync error that ended the journal. The
	// failed frame may be in the file, whole or in part, and a frame
	// written after it would leave a torn line mid-file or a repeated
	// seq, which Open refuses; so every later append returns broken.
	broken error

	// onAppend, when non-nil, observes each append's total and fsync
	// wall time — the durability tax, surfaced on /metrics.
	onAppend func(total, fsync time.Duration)
}

// openJournal opens (creating if needed) the journal for appending.
func openJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, path: path}, nil
}

// Append frames, writes and fsyncs one record. The record is durable
// when Append returns nil. A record that fails validation writes
// nothing; a failed write or fsync breaks the journal for good.
func (j *Journal) Append(r Record) error {
	if j.broken != nil {
		return j.broken
	}
	if err := r.Validate(); err != nil {
		return err
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line, err := json.Marshal(frame{C: crc32.ChecksumIEEE(raw), R: raw})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	start := time.Now()
	if _, err := j.f.Write(line); err != nil {
		j.broken = fmt.Errorf("durable: journal write: %w", err)
		return j.broken
	}
	syncStart := time.Now()
	if err := j.f.Sync(); err != nil {
		j.broken = fmt.Errorf("durable: journal fsync: %w", err)
		return j.broken
	}
	if j.onAppend != nil {
		now := time.Now()
		j.onAppend(now.Sub(start), now.Sub(syncStart))
	}
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }

// readJournal loads every intact record and returns the byte offset of
// the clean prefix. torn reports whether a damaged tail was dropped.
func readJournal(path string) (recs []Record, clean int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	off := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		line := data
		complete := nl >= 0
		if complete {
			line = data[:nl]
		}
		rec, perr := parseFrame(line)
		if perr != nil {
			// Only the final line of the file may be damaged — that is
			// the torn-write signature. Anything earlier is corruption.
			rest := data
			if complete {
				rest = data[nl+1:]
			} else {
				rest = nil
			}
			if complete && len(rest) > 0 {
				return nil, 0, false, fmt.Errorf("durable: journal %s corrupt at offset %d: %v", path, off, perr)
			}
			return recs, off, true, nil
		}
		if !complete {
			// Parsed but never newline-terminated: the fsync that would
			// have sealed it never happened — treat as torn.
			return recs, off, true, nil
		}
		recs = append(recs, rec)
		off += int64(nl + 1)
		data = data[nl+1:]
	}
	return recs, off, false, nil
}

func parseFrame(line []byte) (Record, error) {
	var fr frame
	if err := json.Unmarshal(line, &fr); err != nil {
		return Record{}, err
	}
	if got := crc32.ChecksumIEEE(fr.R); got != fr.C {
		return Record{}, fmt.Errorf("crc mismatch: frame says %08x, payload hashes to %08x", fr.C, got)
	}
	var rec Record
	if err := json.Unmarshal(fr.R, &rec); err != nil {
		return Record{}, err
	}
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}
