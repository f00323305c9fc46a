package durable

import (
	"testing"

	"meryn/internal/api"
)

// TestStoreHooks: every append reports a total ≥ fsync share, the seal
// hook fires once per checkpoint, and appends after a seal keep
// reporting.
func TestStoreHooks(t *testing.T) {
	st, err := Open(t.TempDir(), Meta{Seed: 1, Policy: "meryn"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var appends, seals int
	var totals, fsyncs []float64
	st.SetHooks(Hooks{
		JournalAppend: func(total, fsync float64) {
			appends++
			totals = append(totals, total)
			fsyncs = append(fsyncs, fsync)
		},
		SnapshotSeal: func(s float64) {
			seals++
			if s < 0 {
				t.Errorf("seal duration %g < 0", s)
			}
		},
	})

	rec := Record{TimeS: 0, Kind: KindSubmit, App: &api.App{ID: "h-1", Type: "batch", VMs: 1, WorkS: 10}}
	if _, err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(0, 1, ""); err != nil {
		t.Fatal(err)
	}
	rec.App = &api.App{ID: "h-2", Type: "batch", VMs: 1, WorkS: 10}
	if _, err := st.Append(rec); err != nil {
		t.Fatal(err)
	}

	if appends != 2 {
		t.Fatalf("append hook fired %d times, want 2", appends)
	}
	if seals != 1 {
		t.Fatalf("seal hook fired %d times, want 1", seals)
	}
	for i := range totals {
		if totals[i] <= 0 || fsyncs[i] <= 0 || fsyncs[i] > totals[i] {
			t.Errorf("append %d: total=%g fsync=%g, want 0 < fsync <= total", i, totals[i], fsyncs[i])
		}
	}
}
