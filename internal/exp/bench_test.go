package exp

import (
	"context"
	"runtime"
	"runtime/pprof"
	"testing"

	"meryn/internal/core"
	"meryn/internal/sim"
)

// BenchmarkFrameworksMixPass runs one pass of the frameworks-mix
// workload: the default services, serverless, spot and chaos grids at
// base seed 1 on one worker, as the repository benchmark's passes run
// them. Every iteration runs the same pass, so a -cpuprofile of it
// profiles the mix without a separate harness.
func BenchmarkFrameworksMixPass(b *testing.B) {
	opt := Options{Workers: 1}
	runs := 0
	for i := 0; i < b.N; i++ {
		sv := DefaultServicesMatrix()
		sv.BaseSeed = 1
		svr, err := sv.Services(opt)
		if err != nil {
			b.Fatal(err)
		}
		fn := DefaultServerlessMatrix()
		fn.BaseSeed = 1
		fnr, err := fn.Serverless(opt)
		if err != nil {
			b.Fatal(err)
		}
		sp := DefaultSpotMatrix()
		sp.BaseSeed = 1
		spr, err := sp.Spot(opt)
		if err != nil {
			b.Fatal(err)
		}
		ch := DefaultChaosMatrix()
		ch.BaseSeed = 1
		chr, err := ch.Chaos(opt)
		if err != nil {
			b.Fatal(err)
		}
		runs += svr.Runs + fnr.Runs + spr.Runs + chr.Runs
	}
	b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
}

// scaleWindowWaves is how many arrival waves one Step window of the
// scale scenario spans (1280 applications), as in the repository
// benchmark's scale-100k workload.
const scaleWindowWaves = 20

// openScaleSession builds the scale platform at seed 1, opens a session
// and submits the first apps applications of the scale workload, as the
// repository benchmark does before its Step windows. It returns the
// session and the last arrival.
func openScaleSession(tb testing.TB, apps int) (*core.Session, sim.Time) {
	tb.Helper()
	p, err := core.NewPlatform(scaleConfig(1))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := p.Open()
	if err != nil {
		tb.Fatal(err)
	}
	w := scaleWorkload(apps)
	for j := range w {
		if _, err := s.SubmitWith(w[j], nil); err != nil {
			tb.Fatal(err)
		}
	}
	return s, w[len(w)-1].SubmitAt
}

// stepScaleWindows advances s one window at a time up to the last
// arrival and returns how many applications the windows span.
func stepScaleWindows(s *core.Session, last sim.Time) (items uint64) {
	window := sim.Seconds(scaleWindowWaves * scaleWave)
	for t := window; t <= last; t += window {
		s.Step(t)
		items += scaleWindowWaves * scaleVCs
	}
	return items
}

// BenchmarkScaleWindow runs the scale scenario's Step windows
// in-process, as the repository benchmark's scale-100k workload times
// them, at 20 000 applications: every application is submitted first,
// then Session.Step advances the clock one window of 20 arrival waves
// (1280 applications) at a time up to the last arrival. Only the
// windows are timed. ns/app, allocs/app and B/app are per application
// a window spans, averaged over all the windows; the benchmark's
// latency_ms is instead the fast end (5th percentile) of the window
// times, so the two move together only when every window gets cheaper.
// The windows run under the pprof label phase=step, so
// `go tool pprof -tagfocus phase=step` keeps them alone in a
// -cpuprofile.
func BenchmarkScaleWindow(b *testing.B) {
	const apps = 20_000
	b.StopTimer()
	var (
		ms                    runtime.MemStats
		mallocs, bytes, items uint64
	)
	for i := 0; i < b.N; i++ {
		s, last := openScaleSession(b, apps)
		runtime.ReadMemStats(&ms)
		mallocs0, bytes0 := ms.Mallocs, ms.TotalAlloc
		b.StartTimer()
		pprof.Do(context.Background(), pprof.Labels("phase", "step"), func(context.Context) {
			items += stepScaleWindows(s, last)
		})
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - mallocs0
		bytes += ms.TotalAlloc - bytes0
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(items), "ns/app")
	b.ReportMetric(float64(mallocs)/float64(items), "allocs/app")
	b.ReportMetric(float64(bytes)/float64(items), "B/app")
}
