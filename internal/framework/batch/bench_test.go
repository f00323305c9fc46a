package batch

import (
	"fmt"
	"testing"

	"meryn/internal/framework"
	"meryn/internal/sim"
)

// BenchmarkSchedulerThroughput measures batch scheduling cost: 64 nodes,
// 512 single-VM jobs driven to completion.
func BenchmarkSchedulerThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		fw := New(eng, Config{})
		for n := 0; n < 64; n++ {
			fw.AddNode(framework.Node{ID: fmt.Sprintf("n%03d", n), SpeedFactor: 1.0})
		}
		for j := 0; j < 512; j++ {
			if err := fw.Submit(&framework.Job{ID: fmt.Sprintf("j%04d", j), VMs: 1, Work: 100}); err != nil {
				b.Fatal(err)
			}
		}
		eng.RunAll()
	}
}

// BenchmarkRunningSnapshot measures the Running() listing on a cluster
// with 64 running jobs — the per-bid cost in core's suspensionBid.
func BenchmarkRunningSnapshot(b *testing.B) {
	eng := sim.NewEngine()
	fw := New(eng, Config{})
	for n := 0; n < 64; n++ {
		fw.AddNode(framework.Node{ID: fmt.Sprintf("n%03d", n), SpeedFactor: 1.0})
	}
	for j := 0; j < 64; j++ {
		if err := fw.Submit(&framework.Job{ID: fmt.Sprintf("app-%d", j), VMs: 1, Work: 1e12}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := fw.Running(); len(got) != 64 {
			b.Fatalf("running = %d, want 64", len(got))
		}
	}
}

// BenchmarkSuspendResume measures the checkpoint/restart path.
func BenchmarkSuspendResume(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	fw := New(eng, Config{})
	fw.AddNode(framework.Node{ID: "n0", SpeedFactor: 1.0})
	if err := fw.Submit(&framework.Job{ID: "long", VMs: 1, Work: 1e12}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fw.Suspend("long"); err != nil {
			b.Fatal(err)
		}
		if err := fw.Resume("long"); err != nil {
			b.Fatal(err)
		}
	}
}
