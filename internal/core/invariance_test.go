package core

import (
	"fmt"
	"sort"
	"testing"

	"meryn/internal/cloud"
	"meryn/internal/sim"
	"meryn/internal/vmm"
	"meryn/internal/workload"
)

// mixedConfig builds the mixed-workload platform (PolicyStatic, no
// clouds): six saturated batch VCs, a service VC and a serverless VC.
func mixedConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Policy = PolicyStatic
	cfg.Clouds = []cloud.Config{}
	cfg.PrivateVMCap = 64
	cfg.VCs = []VCConfig{
		{Name: "b0", Type: workload.TypeBatch, InitialVMs: 3},
		{Name: "b1", Type: workload.TypeBatch, InitialVMs: 2},
		{Name: "b2", Type: workload.TypeBatch, InitialVMs: 3},
		{Name: "b3", Type: workload.TypeBatch, InitialVMs: 2},
		{Name: "b4", Type: workload.TypeBatch, InitialVMs: 3},
		{Name: "b5", Type: workload.TypeBatch, InitialVMs: 2},
		{Name: "svc", Type: workload.TypeService, InitialVMs: 6},
		{Name: "fn", Type: workload.TypeServerless, InitialVMs: 4},
	}
	return cfg
}

// mixedWorkload oversubscribes the batch VCs (the pending queue and
// retry paths run throughout) and adds long-lived service and
// serverless applications so the elasticity loops run too.
func mixedWorkload() workload.Workload {
	var w workload.Workload
	for i := 0; i < 96; i++ {
		w = append(w, workload.App{
			ID:       fmt.Sprintf("b-%03d", i),
			Type:     workload.TypeBatch,
			VC:       fmt.Sprintf("b%d", i%6),
			SubmitAt: sim.Seconds(float64(i)*4.7 + 0.13*float64(i%7)),
			VMs:      1 + i%2,
			Work:     240 + 30*float64(i%5),
		})
	}
	for i := 0; i < 2; i++ {
		w = append(w, workload.App{
			ID: fmt.Sprintf("s-%d", i), Type: workload.TypeService, VC: "svc",
			SubmitAt: sim.Seconds(3.1 + 40*float64(i)),
			VMs:      2, Replicas: 2,
			SvcRate: 10, DurationS: 420,
			Load:         &workload.LoadProfile{Base: 12, OnOff: &workload.OnOff{Period: sim.Seconds(90), Active: sim.Seconds(45)}},
			DeclaredPeak: 12,
		})
	}
	for i := 0; i < 2; i++ {
		w = append(w, workload.App{
			ID: fmt.Sprintf("f-%d", i), Type: workload.TypeServerless, VC: "fn",
			SubmitAt: sim.Seconds(7.9 + 55*float64(i)),
			Replicas: 1, SvcRate: 10, DurationS: 380,
			ColdStartS: 12, ConcTarget: 1.5, IdleWindowS: 40,
			Load: &workload.LoadProfile{Base: 6, OnOff: &workload.OnOff{Period: sim.Seconds(120), Active: sim.Seconds(60)}},
		})
	}
	return w
}

// TestMixedWorkloadGolden pins the mixed workload's observable outcome:
// the session digest (every submission snapshot, VC, gauge and
// counter), the length of the session event log and the number of
// events the engine fired. A refactor of the dispatch path must leave
// all three in place.
func TestMixedWorkloadGolden(t *testing.T) {
	p := newPlatform(t, mixedConfig())
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range mixedWorkload() {
		if _, err := s.SubmitWith(app, nil); err != nil {
			t.Fatalf("submit %s: %v", app.ID, err)
		}
	}
	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.AuditChecks == 0 {
		t.Fatal("auditor never ran")
	}
	if got := fmt.Sprintf("%016x", s.Digest()); got != "507a6fdc9944ca4c" {
		t.Errorf("digest %s, want 507a6fdc9944ca4c", got)
	}
	if got := len(s.EventsSince(-1)); got != 400 {
		t.Errorf("%d session events, want 400", got)
	}
	if res.EventsFired != 823 {
		t.Errorf("%d events fired, want 823", res.EventsFired)
	}
}

// TestControllerInvarianceUnderCrashes replays a deterministic
// node-crash storm against the mixed workload, once with the
// event-driven Application Controllers and once with the per-interval
// poll forced for batch applications (the unexported pollControllers
// oracle), and demands byte-identical state. The jobs killed by each
// crash requeue, restart, and drop their event-driven controllers back
// to grid polling, so this pins the interrupted-execution paths — the
// one regime where the event-driven schedule is not a closed-form
// no-op — to the poll's behavior exactly.
func TestControllerInvarianceUnderCrashes(t *testing.T) {
	crashAt := []float64{151.37, 343.9, 612.53, 997.01, 1405.77}
	w := mixedWorkload()

	var (
		baseDigest uint64
		baseEvents []SessionEvent
	)
	for i, poll := range []bool{false, true} {
		name := fmt.Sprintf("poll=%v", poll)
		p := newPlatform(t, mixedConfig())
		p.pollControllers = poll
		s, err := p.Open()
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range w {
			if _, err := s.SubmitWith(app, nil); err != nil {
				t.Fatalf("%s: submit %s: %v", name, app.ID, err)
			}
		}
		for n, at := range crashAt {
			s.Step(sim.Seconds(at))
			vms := p.VMM.List(vmm.StateRunning)
			if len(vms) == 0 {
				continue
			}
			ids := make([]string, 0, len(vms))
			for _, v := range vms {
				ids = append(ids, v.ID)
			}
			sort.Strings(ids) // choice depends only on the (identical) VM set
			id := ids[(n*7+3)%len(ids)]
			if err := p.VMM.Crash(id); err != nil {
				t.Fatalf("%s: crash %s: %v", name, id, err)
			}
		}
		res, err := s.Drain()
		if err != nil {
			t.Fatalf("%s: drain: %v", name, err)
		}
		if res.AuditChecks == 0 {
			t.Fatalf("%s: auditor never ran", name)
		}
		digest := s.Digest()
		evs := s.EventsSince(-1)
		if i == 0 {
			baseDigest, baseEvents = digest, evs
			continue
		}
		if digest != baseDigest {
			t.Errorf("%s: digest %x, want %x (event-driven)", name, digest, baseDigest)
		}
		if len(evs) != len(baseEvents) {
			t.Fatalf("%s: %d events, want %d", name, len(evs), len(baseEvents))
		}
		for j := range evs {
			if evs[j] != baseEvents[j] {
				t.Fatalf("%s: event %d = %+v, want %+v", name, j, evs[j], baseEvents[j])
			}
		}
	}
}
