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

// BenchmarkScaleWindow runs the scale scenario's Step windows
// in-process, as the repository benchmark's scale-100k workload times
// them, at 20 000 applications: every application is submitted first,
// then Session.Step advances the clock one window of 20 arrival waves
// (1280 applications) at a time up to the last arrival. Only the
// windows are timed; ns/app and allocs/app are per application a
// window spans. The windows run under the pprof label phase=step, so
// `go tool pprof -tagfocus phase=step` keeps them alone in a
// -cpuprofile.
func BenchmarkScaleWindow(b *testing.B) {
	const apps, windowWaves = 20_000, 20
	b.StopTimer()
	w := scaleWorkload(apps)
	window := sim.Seconds(windowWaves * scaleWave)
	last := w[len(w)-1].SubmitAt
	var (
		ms             runtime.MemStats
		mallocs, items uint64
	)
	for i := 0; i < b.N; i++ {
		p, err := core.NewPlatform(scaleConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		s, err := p.Open()
		if err != nil {
			b.Fatal(err)
		}
		for j := range w {
			if _, err := s.SubmitWith(w[j], nil); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		pprof.Do(context.Background(), pprof.Labels("phase", "step"), func(context.Context) {
			for t := window; t <= last; t += window {
				s.Step(t)
				items += windowWaves * scaleVCs
			}
		})
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(items), "ns/app")
	b.ReportMetric(float64(mallocs)/float64(items), "allocs/app")
}
