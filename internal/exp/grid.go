package exp

import (
	"encoding/json"
	"fmt"
	"strconv"

	"meryn/internal/core"
)

// Grid is the result of an experiment grid: one aggregated cell per
// grid point, in expansion order, so rendering and JSON are
// byte-identical whatever the worker count.
type Grid[C any] struct {
	Name     string `json:"name"`
	BaseSeed int64  `json:"base_seed"`
	Reps     int    `json:"reps"`
	Runs     int    `json:"runs"`
	Cells    []C    `json:"cells"`
}

// JSON returns the machine-readable form: indented, field order fixed
// by the struct definitions, cell order fixed by grid expansion.
func (g *Grid[C]) JSON() ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}

// runGrid runs reps replications of every cell on the worker pool and
// condenses each cell's results with agg. Runs go cell-major with a
// cell's replications adjacent; replication rep of a cell runs with
// gridSeed(base, key(cell), rep), so adding a cell or a replication
// never perturbs the seeds of existing runs.
func runGrid[K, C any](opt Options, name string, base int64, reps int, cells []K,
	key func(K) string,
	build func(cell K, rep int, seed int64) Scenario,
	agg func(cell K, runs []*core.Results) C,
) (Grid[C], error) {
	results, err := RunScenarios(len(cells)*reps, opt, func(i int) Scenario {
		cell, rep := cells[i/reps], i%reps
		return build(cell, rep, gridSeed(base, key(cell), rep))
	})
	if err != nil {
		return Grid[C]{}, err
	}
	g := Grid[C]{Name: name, BaseSeed: base, Reps: reps, Runs: len(results)}
	for i, cell := range cells {
		g.Cells = append(g.Cells, agg(cell, results[i*reps:(i+1)*reps]))
	}
	return g, nil
}

// gridSeed derives the seed of one replication of a grid cell.
func gridSeed(base int64, key string, rep int) int64 {
	return DeriveSeed(base, fmt.Sprintf("%s/rep=%d", key, rep))
}

// pm renders a cell metric with digits decimals: the mean alone for a
// single replication, mean ±CI95 otherwise.
func pm(m Metric, reps, digits int) string {
	if reps < 2 {
		return strconv.FormatFloat(m.Mean, 'f', digits, 64)
	}
	return fmt.Sprintf("%.*f ±%.*f", digits, m.Mean, digits, m.CI95)
}
