package exp

import "testing"

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
