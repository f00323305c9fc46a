package durable

import (
	"io"
	"os"
	"testing"
)

// FailNextAppend makes the store's next append fail at its fsync: the
// frame is written to a pipe, which cannot be fsync'd. The returned
// land copies keep bytes of that frame into the journal (the whole
// frame when keep < 0), as a write that reached the file before its
// fsync failed leaves them, and puts the journal file back.
func FailNextAppend(t testing.TB, s *Store) (land func(keep int)) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	file := s.j.f
	s.j.f = w
	s.mu.Unlock()
	return func(keep int) {
		t.Helper()
		w.Close()
		frame, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if keep < 0 || keep > len(frame) {
			keep = len(frame)
		}
		if _, err := file.Write(frame[:keep]); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.j.f = file
		s.mu.Unlock()
	}
}
