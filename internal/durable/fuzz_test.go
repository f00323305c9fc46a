package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadJournal: for any bytes, readJournal either refuses them or
// loads a clean prefix of whole, valid records, dropping at most the
// final line as a torn tail; re-reading that prefix loads the same
// records and finds nothing torn.
func FuzzReadJournal(f *testing.F) {
	dir := f.TempDir()
	j, err := openJournal(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	for i, id := range []string{"a", "b"} {
		r := submitRec(id, float64(i))
		r.Seq = int64(i) + 1
		if err := j.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	clean, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(append(append([]byte{}, clean...), `{"c":123,"r":{"seq":3,"kind":"sub`...))
	f.Add(clean[:len(clean)-1]) // a whole final frame whose newline never landed
	f.Add(bytes.Replace(clean, []byte(`"a"`), []byte(`"x"`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), journalName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, off, torn, err := readJournal(path)
		if err != nil {
			return
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("clean prefix %d of %d bytes", off, len(data))
		}
		rest := data[off:]
		if !torn && len(rest) != 0 {
			t.Fatalf("%d bytes past the clean prefix, but nothing torn", len(rest))
		}
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 && nl != len(rest)-1 {
			t.Fatalf("dropped more than the final line: %q", rest)
		}
		for i, r := range recs {
			if err := r.Validate(); err != nil {
				t.Fatalf("record %d loaded but invalid: %v", i, err)
			}
		}
		if err := os.WriteFile(path, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		again, off2, torn2, err := readJournal(path)
		if err != nil || torn2 || off2 != off || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-reading the clean prefix: %d records, clean %d, torn %v, err %v; want %d records, clean %d",
				len(again), off2, torn2, err, len(recs), off)
		}
	})
}
