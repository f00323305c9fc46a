// Package metrics records simulation observables: step time series (used
// VM counts over time, the payload of the paper's Figure 5), per-
// application records (execution time, cost, SLA outcome — Figures 6a/6b)
// and named counters.
package metrics

import (
	"fmt"
	"sort"

	"meryn/internal/sim"
)

// Point is one sample of a step series.
type Point struct {
	At    sim.Time
	Value float64
}

// Series is a piecewise-constant (step) time series. Values persist until
// the next recorded point. It is the natural shape for "number of VMs in
// use": the count changes at discrete instants.
type Series struct {
	Name   string
	points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Record appends a sample. Samples must arrive in nondecreasing time
// order (the simulation clock guarantees this); a sample at the same
// instant as the previous one overwrites it, so only the final value at
// each instant is kept and repeated same-instant updates never grow the
// series.
func (s *Series) Record(at sim.Time, v float64) {
	if n := len(s.points); n > 0 {
		if at < s.points[n-1].At {
			panic(fmt.Sprintf("metrics: out-of-order sample on %q: %v after %v", s.Name, at, s.points[n-1].At))
		}
		if at == s.points[n-1].At {
			s.points[n-1].Value = v
			return
		}
	}
	s.points = append(s.points, Point{At: at, Value: v})
}

// Len returns the number of stored points.
func (s *Series) Len() int { return len(s.points) }

// Points returns the underlying samples (not a copy; callers must not
// mutate).
func (s *Series) Points() []Point { return s.points }

// At returns the series value at time t (0 before the first sample).
func (s *Series) At(t sim.Time) float64 {
	idx := sort.Search(len(s.points), func(i int) bool { return s.points[i].At > t })
	if idx == 0 {
		return 0
	}
	return s.points[idx-1].Value
}

// Max returns the maximum recorded value (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for _, p := range s.points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Integral returns the time integral of the series from its first sample
// to horizon, in value-seconds. For a VM-usage series this is total
// VM-seconds consumed, the quantity that drives provider cost.
func (s *Series) Integral(horizon sim.Time) float64 {
	total := 0.0
	for i, p := range s.points {
		end := horizon
		if i+1 < len(s.points) && s.points[i+1].At < horizon {
			end = s.points[i+1].At
		}
		if end > p.At {
			total += p.Value * sim.ToSeconds(end-p.At)
		}
	}
	return total
}

// Gauge tracks an integer quantity that moves up and down (e.g. VMs in
// use) and mirrors every change into a Series.
type Gauge struct {
	value  int
	series *Series
}

// NewGauge returns a gauge recording into a series with the given name.
func NewGauge(name string) *Gauge {
	return &Gauge{series: NewSeries(name)}
}

// Add moves the gauge by delta at time t. Batch same-instant movements
// into one Add where possible (one segment open moves the gauge once
// with the node-count delta); repeated same-instant Adds stay correct —
// the mirror series coalesces them — but each costs a Record call.
func (g *Gauge) Add(t sim.Time, delta int) {
	g.value += delta
	if g.value < 0 {
		panic(fmt.Sprintf("metrics: gauge %q went negative (%d)", g.series.Name, g.value))
	}
	g.series.Record(t, float64(g.value))
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int { return g.value }

// Series exposes the history.
func (g *Gauge) Series() *Series { return g.series }

// Counter is a monotone named counter.
type Counter struct {
	Name  string
	Count int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Count++ }

// AddN adds n (n may not be negative).
func (c *Counter) AddN(n int64) {
	if n < 0 {
		panic("metrics: Counter.AddN with negative n")
	}
	c.Count += n
}
