package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Meta is the configuration fingerprint a state directory is bound to.
// Replaying records against a differently-configured platform would
// silently rebuild a *different* deterministic state, so Open refuses a
// mismatch outright.
type Meta struct {
	Seed   int64  `json:"seed"`
	Policy string `json:"policy"`
}

// Snapshot is a seal: the state that journal records 1..LastSeq
// rebuild, taken after the last of them was applied. State is a pure
// function of the record sequence, so the journal alone recovers it;
// the seal lets recovery check that replay rebuilt it byte for byte
// (Digest at virtual time TimeS) and restores the server's ID counter
// (NextID).
type Snapshot struct {
	Meta    Meta    `json:"meta"`
	TimeS   float64 `json:"time_s"`
	NextID  int64   `json:"next_id"`
	Digest  string  `json:"digest"`
	LastSeq int64   `json:"last_seq"`
}

const (
	snapshotName = "snapshot.json"
	journalName  = "journal.ndjson"
)

// writeSnapshot replaces the seal atomically: write to a temp file,
// fsync it, rename over the old seal, fsync the directory. A crash at
// any point leaves either the old seal or the new one — never a
// half-written file.
func writeSnapshot(dir string, s *Snapshot) error {
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, snapshotName+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapshotName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// loadSnapshot reads the seal; (nil, nil) when none exists yet.
func loadSnapshot(dir string) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", filepath.Join(dir, snapshotName), err)
	}
	return &s, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
