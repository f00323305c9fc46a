package durable

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meryn/internal/api"
	"meryn/internal/sim"
)

var testMeta = Meta{Seed: 1, Policy: "meryn"}

func submitRec(id string, t float64) Record {
	return Record{TimeS: t, Kind: KindSubmit, App: &api.App{ID: id, Type: "batch", VMs: 1, WorkS: 600}}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestJournalRoundTrip appends a mixed batch of records and reads them
// back intact, sequence numbers included.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	want := []Record{
		submitRec("a", 0),
		{TimeS: 1, Kind: KindCounter, AppID: "a", Price: 40},
		{TimeS: 2, Kind: KindAccept, AppID: "a", OfferIndex: 1},
		{TimeS: 3, Kind: KindReject, AppID: "b"},
	}
	for _, r := range want {
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := openStore(t, dir)
	got := s2.Records()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i, g := range got {
		if g.Seq != int64(i)+1 {
			t.Errorf("record %d: seq = %d", i, g.Seq)
		}
		if g.Kind != want[i].Kind || g.TimeS != want[i].TimeS || g.AppID != want[i].AppID ||
			g.OfferIndex != want[i].OfferIndex || g.Price != want[i].Price {
			t.Errorf("record %d = %+v, want %+v", i, g, want[i])
		}
	}
	if got[0].App == nil || got[0].App.ID != "a" || got[0].App.WorkS != 600 {
		t.Errorf("submit payload did not survive: %+v", got[0].App)
	}
}

// TestTornTailTolerated mimics a crash mid-append: a partial final line
// (no newline, broken JSON) must be dropped, truncated away, and not
// poison later appends.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for i, id := range []string{"a", "b"} {
		if _, err := s.Append(submitRec(id, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	jpath := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"c":123,"r":{"seq":3,"kind":"sub`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir)
	if !s2.TornTail() {
		t.Fatal("TornTail() = false after a partial final record")
	}
	if got := s2.Records(); len(got) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got))
	}
	// The torn bytes must be gone so the next append starts clean.
	if _, err := s2.Append(submitRec("c", 2)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openStore(t, dir)
	if got := s3.Records(); len(got) != 3 || got[2].App.ID != "c" {
		t.Fatalf("after torn-tail truncate + append: %d records", len(got))
	}
}

// TestTornTailCompleteLine covers the other torn shape: a final line
// that did get its newline but whose CRC does not match (partial page
// flush). It is dropped; the same damage mid-file is corruption.
func TestTornTailCompleteLine(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Append(submitRec("a", 0))
	s.Append(submitRec("b", 1))
	s.Close()

	jpath := filepath.Join(dir, journalName)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))

	// Damage the last line's payload: torn tail, tolerated.
	tail := bytes.Replace(lines[1], []byte(`"b"`), []byte(`"x"`), 1)
	os.WriteFile(jpath, append(append([]byte{}, lines[0]...), tail...), 0o644)
	s2 := openStore(t, dir)
	if got := s2.Records(); len(got) != 1 || !s2.TornTail() {
		t.Fatalf("damaged final line: %d records, torn=%v; want 1, true", len(got), s2.TornTail())
	}
	s2.Close()

	// The same damage on the *first* line is corruption: refuse.
	head := bytes.Replace(lines[0], []byte(`"a"`), []byte(`"x"`), 1)
	os.WriteFile(jpath, append(append([]byte{}, head...), lines[1]...), 0o644)
	if _, err := Open(dir, testMeta); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-journal corruption: err = %v, want corrupt", err)
	}
}

// TestCheckpointCompacts: a checkpoint writes a seal of the state after
// the last journaled record and leaves the journal whole; records
// appended afterwards count towards the next seal, and a reopened store
// reads the whole history and the seal back.
func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Append(submitRec("a", 0))
	s.Append(Record{TimeS: 1, Kind: KindAccept, AppID: "a"})
	if s.TailLen() != 2 {
		t.Fatalf("TailLen before the first seal = %d, want 2", s.TailLen())
	}
	if err := s.Checkpoint(1, 1, "deadbeef"); err != nil {
		t.Fatal(err)
	}
	if s.TailLen() != 0 {
		t.Fatalf("TailLen after checkpoint = %d", s.TailLen())
	}
	if recs, _, _, err := readJournal(filepath.Join(dir, journalName)); err != nil || len(recs) != 2 {
		t.Fatalf("journal after checkpoint: %d records, err %v; want both kept", len(recs), err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"records"`)) || bytes.Contains(raw, []byte(`"kind"`)) {
		t.Fatalf("the seal carries records: %s", raw)
	}
	s.Append(submitRec("b", 2))
	if s.TailLen() != 1 {
		t.Fatalf("TailLen after one more append = %d, want 1", s.TailLen())
	}
	s.Close()

	s2 := openStore(t, dir)
	got := s2.Records()
	if len(got) != 3 || got[0].App.ID != "a" || got[2].App.ID != "b" {
		t.Fatalf("after checkpoint + append, recovered %d records", len(got))
	}
	snap := s2.LastCheckpoint()
	if snap == nil || snap.LastSeq != 2 || snap.Digest != "deadbeef" || snap.NextID != 1 || snap.TimeS != 1 {
		t.Fatalf("seal = %+v", snap)
	}
	if s2.TailLen() != 1 {
		t.Fatalf("TailLen after reopen = %d, want 1", s2.TailLen())
	}
}

// TestOpenRefusesSealPastJournal: a seal is written only after the
// records it covers are durable, so a journal that ends before the
// seal's last_seq lost records, and Open must refuse it.
func TestOpenRefusesSealPastJournal(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Append(submitRec("a", 0))
	s.Append(submitRec("b", 1))
	if err := s.Checkpoint(1, 1, "deadbeef"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	jpath := filepath.Join(dir, journalName)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	first := data[:bytes.IndexByte(data, '\n')+1]
	if err := os.WriteFile(jpath, first, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, testMeta)
	if err == nil || !strings.Contains(err.Error(), "through seq 2") || !strings.Contains(err.Error(), "ends at seq 1") {
		t.Fatalf("seal past the journal's end: err = %v", err)
	}
}

// TestMetaMismatch: a state dir written under one seed/policy must not
// silently replay under another — that would rebuild a different
// deterministic state.
func TestMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Append(submitRec("a", 0))
	if err := s.Checkpoint(0, 1, ""); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(dir, Meta{Seed: 2, Policy: "meryn"}); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("seed mismatch: err = %v", err)
	}
	if _, err := Open(dir, Meta{Seed: 1, Policy: "static"}); err == nil {
		t.Fatal("policy mismatch accepted")
	}
}

// TestJournalGap: a journal whose sequence numbers skip refuses to load
// rather than replay an incomplete history.
func TestJournalGap(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	r1 := submitRec("a", 0)
	r1.Seq = 1
	r3 := submitRec("b", 1)
	r3.Seq = 3
	j.Append(r1)
	j.Append(r3)
	j.Close()
	if _, err := Open(dir, testMeta); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gapped journal: err = %v", err)
	}
}

// TestFailedAppendKeepsJournalLoadable: after a write or fsync fails,
// whatever part of the frame reached the file must stay the journal's
// last line, so every later append fails too rather than land after
// it. Open then replays the frame when it is whole and drops it as a
// torn tail when it is not, and the reopened store appends again. A
// record that fails validation writes nothing and breaks nothing.
func TestFailedAppendKeepsJournalLoadable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		keep     int // bytes of the failed frame that reach the file; -1 for all
		wantRecs int
		wantTorn bool
	}{
		{"whole frame", -1, 3, false},
		{"half a frame", 60, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir)
			if _, err := s.Append(Record{Kind: KindAccept}); err == nil {
				t.Fatal("a record without an app ID appended")
			}
			for i, id := range []string{"a", "b"} {
				if _, err := s.Append(submitRec(id, float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			land := FailNextAppend(t, s)
			if _, err := s.Append(submitRec("c", 2)); err == nil {
				t.Fatal("an append whose fsync failed succeeded")
			}
			land(tc.keep)
			for i, id := range []string{"d", "e"} {
				if _, err := s.Append(submitRec(id, float64(3+i))); err == nil {
					t.Errorf("append %q after a failed append succeeded", id)
				}
			}
			s.Close()

			s2, err := Open(dir, testMeta)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			recs := s2.Records()
			if len(recs) != tc.wantRecs || s2.TornTail() != tc.wantTorn {
				t.Fatalf("reopened: %d records, torn %v; want %d, %v", len(recs), s2.TornTail(), tc.wantRecs, tc.wantTorn)
			}
			if r, err := s2.Append(submitRec("f", 5)); err != nil || r.Seq != int64(tc.wantRecs)+1 {
				t.Fatalf("append after reopening: seq %d, err %v", r.Seq, err)
			}
		})
	}
}

// TestRecordValidate rejects the shapes that could never replay,
// including a time sim.Time cannot hold, and accepts the largest whole
// second it holds.
func TestRecordValidate(t *testing.T) {
	bad := []Record{
		{Kind: KindSubmit},                        // no app
		{Kind: KindSubmit, App: &api.App{}},       // no ID
		{Kind: KindAccept},                        // no target
		{Kind: "warp", AppID: "a"},                // unknown kind
		{Kind: KindReject, AppID: "a", TimeS: -1}, // negative time
	}
	for _, ts := range []float64{math.NaN(), math.Inf(1), maxTimeS + 1, 1e12, 9e15} {
		bad = append(bad, submitRec("a", ts)) // no sim.Time holds it
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("record %d validated: %+v", i, r)
		}
	}
	for _, ts := range []float64{0, maxTimeS} {
		if err := submitRec("a", ts).Validate(); err != nil {
			t.Errorf("good record at %g s rejected: %v", ts, err)
		}
	}
	if got := sim.ToSeconds(sim.Seconds(maxTimeS)); got != maxTimeS {
		t.Errorf("sim.Seconds(%d) round-trips to %g", maxTimeS, got)
	}
}
