package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"meryn/internal/core"
	"meryn/internal/workload"
)

// TestGridWorkerInvariance runs a small matrix of each grid with one
// worker and with four. Every run carries its own derived seed and
// results are aggregated in grid order, so each grid must give the same
// JSON bytes and text at both worker counts, with the expected cell and
// run counts.
func TestGridWorkerInvariance(t *testing.T) {
	type grid interface {
		Renderable
		JSON() ([]byte, error)
	}
	cases := []struct {
		name        string
		run         func(Options) (grid, error)
		cells, runs int
	}{
		// 2 policies x 2 interarrivals x 1 load, 2 reps.
		{"sweep", func(o Options) (grid, error) { return fastMatrix().Sweep(o) }, 4, 8},
		// Revocation timing depends on market evolution.
		{"spot", func(o Options) (grid, error) { return smallSpotMatrix().Spot(o) }, 2, 4},
		// Campaigns and audits draw only from their own named streams.
		{"chaos", func(o Options) (grid, error) { return smallChaosMatrix().Chaos(o) }, 2, 4},
		{"services", func(o Options) (grid, error) {
			return ServicesMatrix{
				Loads:    []float64{1},
				Policies: []string{ReplicaPolicyNoop, ReplicaPolicyScaleOut},
				Bursts:   []float64{2.5},
				Reps:     2,
				BaseSeed: 3,
			}.Services(o)
		}, 2, 4},
		// Revision tallies are read back from per-run platform state.
		{"serverless", func(o Options) (grid, error) { return smallServerlessMatrix().Serverless(o) }, 2, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var js [][]byte
			var texts []string
			for _, workers := range []int{1, 4} {
				r, err := c.run(Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				j, err := r.JSON()
				if err != nil {
					t.Fatal(err)
				}
				js, texts = append(js, j), append(texts, r.Render())
			}
			if !bytes.Equal(js[0], js[1]) {
				t.Fatalf("JSON depends on worker count:\nworkers=1:\n%s\nworkers=4:\n%s", js[0], js[1])
			}
			if texts[0] != texts[1] {
				t.Fatalf("text depends on worker count:\nworkers=1:\n%s\nworkers=4:\n%s", texts[0], texts[1])
			}
			var shape struct {
				Runs  int               `json:"runs"`
				Cells []json.RawMessage `json:"cells"`
			}
			if err := json.Unmarshal(js[0], &shape); err != nil {
				t.Fatal(err)
			}
			if len(shape.Cells) != c.cells || shape.Runs != c.runs {
				t.Fatalf("cells = %d, runs = %d; want %d, %d", len(shape.Cells), shape.Runs, c.cells, c.runs)
			}
		})
	}
}

// TestGridSeeds: runGrid hands every run a distinct derived seed, and
// growing the grid by a cell or a replication leaves the seeds of the
// existing runs unchanged.
func TestGridSeeds(t *testing.T) {
	seeds := func(cells []string, reps int) map[string]int64 {
		var mu sync.Mutex
		got := map[string]int64{}
		_, err := runGrid(Options{Workers: 2}, "seeds", 1, reps, cells,
			func(c string) string { return "grid/" + c },
			func(c string, rep int, seed int64) Scenario {
				mu.Lock()
				got[fmt.Sprintf("%s/%d", c, rep)] = seed
				mu.Unlock()
				return Scenario{Workload: workload.Workload{}}
			},
			func(string, []*core.Results) int { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	small := seeds([]string{"a", "b"}, 2)
	if len(small) != 4 {
		t.Fatalf("%d runs, want 4", len(small))
	}
	grown := seeds([]string{"a", "c", "b"}, 3)
	distinct := map[int64]bool{}
	for _, s := range grown {
		distinct[s] = true
	}
	if len(distinct) != len(grown) {
		t.Fatalf("%d distinct seeds over %d runs", len(distinct), len(grown))
	}
	for run, s := range small {
		if grown[run] != s {
			t.Fatalf("run %s: seed %d after growing the grid, %d before", run, grown[run], s)
		}
	}
}
