package core

import (
	"fmt"
	"sort"
	"testing"

	"meryn/internal/cloud"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/vmm"
	"meryn/internal/workload"
)

// shardParityConfig builds a platform whose whole workload stays on
// shard-local protocol paths (PolicyStatic, no clouds): six saturated
// batch VCs, a service VC and a serverless VC. On such workloads the
// sharded runtime promises byte-identical observable state for every
// shard count and window width.
func shardParityConfig(shards int, window sim.Time) Config {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Policy = PolicyStatic
	cfg.Clouds = []cloud.Config{}
	cfg.PrivateVMCap = 64
	cfg.Shards = shards
	cfg.ShardWindow = window
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

// shardParityWorkload oversubscribes the batch VCs (the pending queue
// and retry paths must merge identically) and adds long-lived service
// and serverless applications so the elasticity loops run throughout.
// Arrival times carry fractional jitter: the parity contract covers
// workloads without cross-shard same-instant ties.
func shardParityWorkload() workload.Workload {
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

// TestShardInvariance drives the identical workload through shard
// counts 1, 4 and 8 and two window widths, and demands byte-identical
// observable state: the session digest (every submission snapshot, VC,
// gauge and counter), the full event log, and the ledger accounting.
func TestShardInvariance(t *testing.T) {
	type variant struct {
		shards int
		window sim.Time
	}
	variants := []variant{
		{shards: 1},
		{shards: 4, window: sim.Seconds(10)},
		{shards: 8, window: sim.Seconds(10)},
		{shards: 8, window: sim.Seconds(60)},
	}
	w := shardParityWorkload()

	var (
		baseDigest uint64
		baseEvents []SessionEvent
		baseAgg    string
	)
	for i, v := range variants {
		name := fmt.Sprintf("shards=%d/window=%v", v.shards, v.window)
		p := newPlatform(t, shardParityConfig(v.shards, v.window))
		if (p.shards != nil) != (v.shards > 1) {
			t.Fatalf("%s: sharded coordinator presence = %v", name, p.shards != nil)
		}
		s, err := p.Open()
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range w {
			if _, err := s.SubmitWith(app, nil); err != nil {
				t.Fatalf("%s: submit %s: %v", name, app.ID, err)
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
		events := s.EventsSince(-1)
		agg := fmt.Sprintf("%+v", metrics.AggregateRecords(res.Ledger.All()))

		if i == 0 {
			baseDigest, baseEvents, baseAgg = digest, events, agg
			continue
		}
		if digest != baseDigest {
			t.Errorf("%s: digest %x, want %x (shards=1)", name, digest, baseDigest)
		}
		if agg != baseAgg {
			t.Errorf("%s: aggregate diverged from shards=1:\n got %s\nwant %s", name, agg, baseAgg)
		}
		if len(events) != len(baseEvents) {
			t.Fatalf("%s: %d events, want %d", name, len(events), len(baseEvents))
		}
		for j := range events {
			if events[j] != baseEvents[j] {
				t.Fatalf("%s: event %d = %+v, want %+v", name, j, events[j], baseEvents[j])
			}
		}
	}
}

// TestControllerInvarianceUnderCrashes replays a deterministic
// node-crash storm at fixed shard counts — the single engine and two
// sharded ones — once with the event-driven Application Controllers and
// once with the per-interval poll forced for batch applications (the
// unexported pollControllers oracle), and demands byte-identical state.
// The jobs killed by each crash requeue, restart, and drop their
// event-driven controllers back to grid polling, so this pins the
// interrupted-execution paths — the one regime where the event-driven
// schedule is not a closed-form no-op — to the poll's behavior exactly.
// (Crash handling itself is not time-parity across different shard
// counts: replacement-VM boot latencies draw in window order. Holding
// the shard count fixed isolates the controller discipline.)
func TestControllerInvarianceUnderCrashes(t *testing.T) {
	crashAt := []float64{151.37, 343.9, 612.53, 997.01, 1405.77}
	w := shardParityWorkload()

	type variant struct {
		shards int
		poll   bool
	}
	variants := []variant{
		{shards: 1, poll: false},
		{shards: 1, poll: true},
		{shards: 4, poll: false},
		{shards: 4, poll: true},
		{shards: 8, poll: false},
		{shards: 8, poll: true},
	}
	digests := map[int]uint64{}
	events := map[int][]SessionEvent{}
	for _, v := range variants {
		name := fmt.Sprintf("shards=%d/poll=%v", v.shards, v.poll)
		p := newPlatform(t, shardParityConfig(v.shards, sim.Seconds(10)))
		p.pollControllers = v.poll
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
		base, seen := events[v.shards]
		if !seen {
			digests[v.shards], events[v.shards] = digest, evs
			continue
		}
		if digest != digests[v.shards] {
			t.Errorf("%s: digest %x, want %x (event-driven)", name, digest, digests[v.shards])
		}
		if len(evs) != len(base) {
			t.Fatalf("%s: %d events, want %d", name, len(evs), len(base))
		}
		for j := range evs {
			if evs[j] != base[j] {
				t.Fatalf("%s: event %d = %+v, want %+v", name, j, evs[j], base[j])
			}
		}
	}
}

// TestShardedSoakDeterminism replays the randomized chaos soak — crash
// and revocation storms against a live sharded session, the auditor
// checking the invariant catalogue at every window barrier — twice at
// Shards=3, and demands identical digests. Concurrency across shard
// goroutines must not leak into outcomes even under adversarial load;
// CI runs this under -race.
func TestShardedSoakDeterminism(t *testing.T) {
	first := soak(t, 42, 3)
	second := soak(t, 42, 3)
	if first != second {
		t.Fatalf("sharded soak diverged across replays: %x vs %x", first, second)
	}
}
