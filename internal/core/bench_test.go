package core

import (
	"fmt"
	"testing"

	"meryn/internal/sim"
	"meryn/internal/workload"
)

// benchPlatform builds a single-VC cloudless platform with vms private
// VMs, submits the workload and steps the engine until every submitted
// application is running, returning the VC's Cluster Manager. It then
// closes the session, so the measured loops append no session events.
func benchPlatform(b *testing.B, vms int, w workload.Workload) (*Platform, *ClusterManager) {
	b.Helper()
	p, err := NewPlatform(onevcConfig(vms))
	if err != nil {
		b.Fatal(err)
	}
	s, err := p.Open()
	if err != nil {
		b.Fatal(err)
	}
	for i := range w {
		if _, err := s.SubmitWith(w[i], nil); err != nil {
			b.Fatal(err)
		}
	}
	cm, _ := p.CM("vc1")
	for len(cm.fw.Running()) < len(w) && p.Eng.Step() {
	}
	if got := len(cm.fw.Running()); got != len(w) {
		b.Fatalf("running = %d, want %d", got, len(w))
	}
	s.close()
	return p, cm
}

// BenchmarkComputeBid measures Algorithm 2 over a VC saturated with 25
// running single-VM applications — the per-bid cost paid by every peer
// on every bid round (protocol.go).
func BenchmarkComputeBid(b *testing.B) {
	w := make(workload.Workload, 25)
	for i := range w {
		w[i] = batchApp(fmt.Sprintf("app-%d", i), "vc1", 0, 1e7)
	}
	_, cm := benchPlatform(b, 25, w)
	duration := sim.Seconds(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bid := cm.ComputeBid(1, duration)
		if !bid.OK {
			b.Fatal("expected a suspension bid")
		}
	}
}

// BenchmarkSegmentCycle measures one usage/cost segment open + close for
// an 8-VM application — the accounting path hit on every job start,
// suspension, requeue and finish.
func BenchmarkSegmentCycle(b *testing.B) {
	app := workload.App{
		ID: "big", Type: workload.TypeBatch, VC: "vc1",
		SubmitAt: 0, VMs: 8, Work: 1e7,
	}
	_, cm := benchPlatform(b, 8, workload.Workload{app})
	st := cm.apps["big"]
	if st == nil || st.job == nil {
		b.Fatal("app not dispatched")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.onJobStart(st.job)
		cm.closeSegment(st)
	}
}

// benchAuditRun measures a complete platform run — 20 batch apps over
// a 10-VM VC — with the invariant auditor at a tight 10 s cadence or
// disabled, so the pair brackets the auditor's whole-run overhead
// (recorded in BENCH_chaos.json, and the audit-on run in
// BENCH_run.json).
func benchAuditRun(b *testing.B, disabled bool) {
	w := make(workload.Workload, 20)
	for i := range w {
		w[i] = batchApp(fmt.Sprintf("app-%d", i), "vc1", float64(i*30), 1550)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := onevcConfig(10)
		cfg.Audit = &AuditConfig{Every: sim.Seconds(10), Disabled: disabled}
		p, err := NewPlatform(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlatformRunAuditOn(b *testing.B)  { benchAuditRun(b, false) }
func BenchmarkPlatformRunAuditOff(b *testing.B) { benchAuditRun(b, true) }

// BenchmarkAuditNow measures one audit barrier against history: the
// paper platform (two 25-VM VCs and a cloud) after n single-VM 300 s
// applications ran on vc1 and settled, each before the next arrived. A
// barrier walks live state, so its cost should not grow with n
// (recorded in BENCH_run.json; the live-state rewrite's numbers are in
// BENCH_chaos.json).
func BenchmarkAuditNow(b *testing.B) {
	for _, n := range []int{100, 1000, 3000} {
		b.Run(fmt.Sprintf("settled=%d", n), func(b *testing.B) {
			cfg := DefaultConfig()
			// No barrier fires while the history builds, so set-up stays
			// cheap at any n; only the timed AuditNow calls audit.
			cfg.Audit = &AuditConfig{Every: sim.Seconds(1e9)}
			p, err := NewPlatform(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s, err := p.Open()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				app := batchApp(fmt.Sprintf("app-%04d", i), "vc1", sim.ToSeconds(p.Eng.Now()), 300)
				if _, err := s.SubmitWith(app, nil); err != nil {
					b.Fatal(err)
				}
				if !s.RunToSettle() {
					b.Fatalf("app %d did not settle", i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.AuditNow(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFreePrivateCount measures the idle-private-VM count used by
// the VM exchange protocol (acquireFromVC, processLoanReturns) on a VC
// with 25 idle nodes.
func BenchmarkFreePrivateCount(b *testing.B) {
	_, cm := benchPlatform(b, 25, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := cm.freePrivateCount(); n != 25 {
			b.Fatalf("free private = %d, want 25", n)
		}
	}
}

// BenchmarkNewPlatform measures building and opening the paper
// platform: the fixed cost every run pays before its first submission
// (recorded in BENCH_run.json).
func BenchmarkNewPlatform(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := NewPlatform(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Open(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDigest measures one Session.Digest of a drained seed-1 paper
// session: the fixed cost of every run's fingerprint and of each seal
// (recorded in BENCH_run.json).
func BenchmarkDigest(b *testing.B) {
	s := openPaper(b, PolicyMeryn, 1)
	if _, err := s.Drain(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Digest()
	}
}
