package exp

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"meryn/internal/core"
	"meryn/internal/metrics"
)

// fastMatrix is a small grid that runs in well under a second: light
// load, both policies, two arrival rates, two replications per cell.
func fastMatrix() Matrix {
	return Matrix{
		Name:          "test",
		Interarrivals: []float64{5, 8},
		Loads:         []int{10},
		Reps:          2,
		BaseSeed:      7,
	}
}

// The pool must never exceed its worker bound and must visit every index
// exactly once.
func TestSweepPoolBoundsWorkers(t *testing.T) {
	const n, bound = 64, 3
	var active, peak, calls int64
	var mu sync.Mutex
	err := Pool{Workers: bound}.Each(n, func(i int) error {
		cur := atomic.AddInt64(&active, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		atomic.AddInt64(&calls, 1)
		atomic.AddInt64(&active, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != n {
		t.Fatalf("calls = %d, want %d", calls, n)
	}
	if peak > bound {
		t.Fatalf("peak concurrency %d exceeds bound %d", peak, bound)
	}
}

// The error surfaced must be the one from the lowest index, independent
// of scheduling, and later failures must not abort earlier work.
func TestSweepPoolReportsLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls int64
		err := Pool{Workers: workers}.Each(20, func(i int) error {
			atomic.AddInt64(&calls, 1)
			if i == 5 || i == 17 {
				return sentinel
			}
			return nil
		})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if !strings.Contains(err.Error(), "run 5") {
			t.Fatalf("workers=%d: err %q does not name lowest failing index", workers, err)
		}
		if calls != 20 {
			t.Fatalf("workers=%d: calls = %d, want all 20", workers, calls)
		}
	}
}

// Cell aggregates must equal hand-recomputed statistics over the same
// runs executed individually with the same derived seeds.
func TestSweepCIAggregationMatchesByHand(t *testing.T) {
	m := Matrix{
		Name:          "byhand",
		Policies:      []core.Policy{core.PolicyMeryn},
		Interarrivals: []float64{5},
		Loads:         []int{10},
		Reps:          3,
		BaseSeed:      11,
	}
	res, err := m.Sweep(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	cell := res.Cells[0]

	// Re-run the three replications by hand.
	var costs []float64
	runs := m.Expand()
	if len(runs) != 3 {
		t.Fatalf("expanded runs = %d", len(runs))
	}
	for _, run := range runs {
		r, err := m.scenario(run.Cell, run.Rep, run.Seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, metrics.AggregateRecords(r.Ledger.All()).TotalCost)
	}
	mean := (costs[0] + costs[1] + costs[2]) / 3
	if math.Abs(cell.Cost.Mean-mean) > 1e-9 {
		t.Fatalf("cost mean = %v, hand-computed %v", cell.Cost.Mean, mean)
	}
	// CI95 with df=2: t = 4.303, half-width = t * s / sqrt(3).
	var ss float64
	for _, c := range costs {
		ss += (c - mean) * (c - mean)
	}
	s := math.Sqrt(ss / 2)
	want := 4.303 * s / math.Sqrt(3)
	if math.Abs(cell.Cost.CI95-want) > 1e-6 {
		t.Fatalf("cost CI95 = %v, hand-computed %v", cell.Cost.CI95, want)
	}
	lo, hi := math.Min(math.Min(costs[0], costs[1]), costs[2]), math.Max(math.Max(costs[0], costs[1]), costs[2])
	if cell.Cost.Min != lo || cell.Cost.Max != hi {
		t.Fatalf("cost range = [%v,%v], hand-computed [%v,%v]", cell.Cost.Min, cell.Cost.Max, lo, hi)
	}
}

// Derived seeds must be stable across processes (pure function of base
// seed and run identity) and distinct across cells and replications.
func TestSweepDeriveSeeds(t *testing.T) {
	if DeriveSeed(1, "a") != DeriveSeed(1, "a") {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Fatal("base seed ignored")
	}
	runs := fastMatrix().Expand()
	seen := map[int64]bool{}
	for _, r := range runs {
		if seen[r.Seed] {
			t.Fatalf("duplicate derived seed %d in %d runs", r.Seed, len(runs))
		}
		seen[r.Seed] = true
	}
	// Adding an axis value must not change existing runs' seeds.
	m2 := fastMatrix()
	m2.Loads = append(m2.Loads, 20)
	byKey := map[string]int64{}
	for _, r := range m2.Expand() {
		byKey[r.Cell.key()+string(rune(r.Rep))] = r.Seed
	}
	for _, r := range runs {
		if byKey[r.Cell.key()+string(rune(r.Rep))] != r.Seed {
			t.Fatal("growing the grid perturbed existing run seeds")
		}
	}
}

func TestSweepParseMatrix(t *testing.T) {
	m, err := ParseMatrix("policy=static interarrival=4,6 cluster=40,60 load=20 reps=3 seed=9 name=x")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Policies) != 1 || m.Policies[0] != core.PolicyStatic {
		t.Fatalf("policies = %v", m.Policies)
	}
	if len(m.Interarrivals) != 2 || m.Interarrivals[0] != 4 || m.Interarrivals[1] != 6 {
		t.Fatalf("interarrivals = %v", m.Interarrivals)
	}
	if len(m.ClusterSizes) != 2 || m.ClusterSizes[0] != 40 {
		t.Fatalf("clusters = %v", m.ClusterSizes)
	}
	if m.Loads[0] != 20 || m.Reps != 3 || m.BaseSeed != 9 || m.Name != "x" {
		t.Fatalf("parsed matrix = %+v", m)
	}
	if _, err := ParseMatrix("bogus"); err == nil {
		t.Fatal("want error for pairless field")
	}
	if _, err := ParseMatrix("policy=nope"); err == nil {
		t.Fatal("want error for unknown policy")
	}
	if _, err := ParseMatrix("reps=0"); err == nil {
		t.Fatal("want error for non-positive reps")
	}
	if _, err := ParseMatrix("interarrival=-1"); err == nil {
		t.Fatal("want error for negative interarrival")
	}
	if _, err := ParseMatrix("what=1"); err == nil {
		t.Fatal("want error for unknown key")
	}
	// Empty spec yields the stock matrix.
	d, err := ParseMatrix("")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != DefaultMatrix().Name {
		t.Fatalf("empty spec = %+v", d)
	}
}

// The sweep result must render a readable table and be reachable through
// the experiment registry.
func TestSweepRenderAndRegistry(t *testing.T) {
	m := fastMatrix()
	res, err := m.Sweep(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"policy", "cost [u]", "meryn", "static", "±"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if _, ok := Find("sweep"); !ok {
		t.Fatal("sweep experiment not registered")
	}
}

// The cluster-size axis must scale the physical site with the VM pool
// (the paper's 9 nodes cap out at 54 VMs), and more private VMs must
// mean fewer cloud bursts.
func TestSweepClusterAxisScalesSite(t *testing.T) {
	m := Matrix{
		Policies:     []core.Policy{core.PolicyMeryn},
		ClusterSizes: []int{20, 80},
		Loads:        []int{50},
		Reps:         1,
		BaseSeed:     1,
	}
	res, err := m.Sweep(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	small, big := res.Cells[0], res.Cells[1]
	if small.ClusterSize != 20 || big.ClusterSize != 80 {
		t.Fatalf("cell order: %+v", res.Cells)
	}
	if big.PeakCloud.Mean >= small.PeakCloud.Mean {
		t.Fatalf("peak cloud with 80 VMs (%v) not below 20 VMs (%v)",
			big.PeakCloud.Mean, small.PeakCloud.Mean)
	}
}

// Meryn must beat static on cost in the stock overloaded cells — the
// sweep exists to make that comparison statistically robust.
func TestSweepMerynBeatsStaticAtHighLoad(t *testing.T) {
	m := Matrix{Loads: []int{50}, Reps: 3, BaseSeed: 1}
	res, err := m.Sweep(Options{})
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]Metric{}
	for _, c := range res.Cells {
		byPolicy[c.Policy] = c.Cost
	}
	if byPolicy["meryn"].Mean >= byPolicy["static"].Mean {
		t.Fatalf("meryn mean cost %v >= static %v", byPolicy["meryn"].Mean, byPolicy["static"].Mean)
	}
}
