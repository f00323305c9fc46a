package vmm

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"meryn/internal/cluster"
	"meryn/internal/sim"
	"meryn/internal/stats"
)

func testSite() *cluster.Site {
	return cluster.New(cluster.Config{
		Name: "priv", Nodes: 9, CoresPerNode: 12, MemoryMBPerNode: 49152, SpeedFactor: 0.928,
	})
}

func newManager(t *testing.T, eng *sim.Engine, cfg Config) *Manager {
	t.Helper()
	if cfg.Site == nil {
		cfg.Site = testSite()
	}
	m, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterImage("batch")
	return m
}

func mustStart(t *testing.T, eng *sim.Engine, m *Manager, image string) *VM {
	t.Helper()
	var got *VM
	m.Start(image, func(vm *VM, err error) {
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		got = vm
	})
	eng.RunAll()
	if got == nil {
		t.Fatal("Start completion never fired")
	}
	return got
}

func TestStartRunsVM(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{Latencies: Latencies{Boot: stats.Constant{V: 20}}})
	vm := mustStart(t, eng, m, "batch")
	if vm.State != StateRunning {
		t.Fatalf("state = %v", vm.State)
	}
	if eng.Now() != sim.Seconds(20) {
		t.Fatalf("boot completed at %v, want 20s", eng.Now())
	}
	if vm.SpeedFactor != 0.928 {
		t.Fatalf("speed = %v, want node speed", vm.SpeedFactor)
	}
	if m.Active() != 1 || m.Free() != m.Capacity()-1 {
		t.Fatalf("accounting wrong: active=%d free=%d", m.Active(), m.Free())
	}
	if m.Starts.Count != 1 {
		t.Fatalf("Starts = %d", m.Starts.Count)
	}
}

func TestStartUnknownImage(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{})
	var gotErr error
	m.Start("nope", func(vm *VM, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrNoImage) {
		t.Fatalf("err = %v, want ErrNoImage", gotErr)
	}
}

func TestCapacityCap(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{MaxVMs: 2})
	mustStart(t, eng, m, "batch")
	mustStart(t, eng, m, "batch")
	var gotErr error
	m.Start("batch", func(vm *VM, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", gotErr)
	}
}

func TestPhysicalCapacityBoundsCap(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{MaxVMs: 1000})
	// 9 nodes x min(12/2, 49152/3840)=6 VMs = 54 physical capacity.
	if m.Capacity() != 54 {
		t.Fatalf("Capacity = %d, want clamped 54", m.Capacity())
	}
}

func TestPaperCapacityFifty(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{MaxVMs: 50})
	if m.Capacity() != 50 {
		t.Fatalf("Capacity = %d, want 50", m.Capacity())
	}
	started := 0
	for i := 0; i < 60; i++ {
		m.Start("batch", func(vm *VM, err error) {
			if err == nil {
				started++
			}
		})
	}
	eng.RunAll()
	if started != 50 {
		t.Fatalf("started %d VMs, want exactly 50", started)
	}
}

func TestStopTerminatesAndFreesCapacity(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{Latencies: Latencies{Shutdown: stats.Constant{V: 10}}})
	vm := mustStart(t, eng, m, "batch")
	begin := eng.Now()
	stopped := false
	m.Stop(vm.ID, func(err error) {
		if err != nil {
			t.Fatalf("Stop: %v", err)
		}
		stopped = true
	})
	eng.RunAll()
	if !stopped {
		t.Fatal("Stop completion never fired")
	}
	if eng.Now()-begin != sim.Seconds(10) {
		t.Fatalf("shutdown took %v, want 10s", eng.Now()-begin)
	}
	if vm.State != StateTerminated {
		t.Fatalf("state = %v", vm.State)
	}
	if m.Active() != 0 {
		t.Fatalf("Active = %d after stop", m.Active())
	}
	if m.Stops.Count != 1 {
		t.Fatalf("Stops = %d", m.Stops.Count)
	}
}

func TestStopUnknownAndBadState(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{})
	var err1 error
	m.Stop("ghost", func(err error) { err1 = err })
	if !errors.Is(err1, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err1)
	}
	vm := mustStart(t, eng, m, "batch")
	m.Stop(vm.ID, func(error) {})
	var err2 error
	m.Stop(vm.ID, func(err error) { err2 = err }) // already stopping
	if !errors.Is(err2, ErrBadState) {
		t.Fatalf("err = %v, want ErrBadState", err2)
	}
}

func TestStopDuringBootAborts(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{Latencies: Latencies{
		Boot:     stats.Constant{V: 20},
		Shutdown: stats.Constant{V: 1},
	}})
	bootDone := false
	var vm *VM
	m.Start("batch", func(v *VM, err error) { bootDone = true })
	// The VM is provisioning; find it and stop it before boot completes.
	vms := m.List(StateProvisioning)
	if len(vms) != 1 {
		t.Fatalf("provisioning VMs = %d", len(vms))
	}
	vm = vms[0]
	stopDone := false
	m.Stop(vm.ID, func(err error) {
		if err != nil {
			t.Fatalf("Stop: %v", err)
		}
		stopDone = true
	})
	eng.RunAll()
	if bootDone {
		t.Fatal("boot completion fired for aborted VM")
	}
	if !stopDone || vm.State != StateTerminated {
		t.Fatalf("stop not effective: done=%v state=%v", stopDone, vm.State)
	}
	if m.Active() != 0 {
		t.Fatalf("Active = %d", m.Active())
	}
}

func TestGetAndList(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{})
	vm := mustStart(t, eng, m, "batch")
	got, err := m.Get(vm.ID)
	if err != nil || got != vm {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := m.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(ghost) err = %v", err)
	}
	if lst := m.List(StateRunning); len(lst) != 1 || lst[0] != vm {
		t.Fatalf("List = %v", lst)
	}
}

// TestListStartOrder: List returns VMs in start order, which is
// VM-number order, not ID order: "priv-vm999" comes before
// "priv-vm1000". Chaos crash bursts sample from this order.
func TestListStartOrder(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{Site: cluster.New(cluster.Config{
		Name: "priv", Nodes: 200, CoresPerNode: 12, MemoryMBPerNode: 49152, SpeedFactor: 1,
	})})
	const n = 1100
	var want []*VM
	for i := 0; i < n; i++ {
		vm, err := m.StartDeployed("batch")
		if err != nil {
			t.Fatal(err)
		}
		if vm.ID != fmt.Sprintf("priv-vm%03d", i) {
			t.Fatalf("VM %d has ID %s", i, vm.ID)
		}
		if i%3 == 2 {
			if err := m.Crash(vm.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want = append(want, vm)
	}
	got := m.List(StateRunning)
	if !slices.Equal(got, want) {
		t.Fatalf("List(StateRunning) holds %d VMs, want the %d running in start order", len(got), len(want))
	}
	at := func(id string) int {
		return slices.IndexFunc(got, func(vm *VM) bool { return vm.ID == id })
	}
	if i, j := at("priv-vm999"), at("priv-vm1000"); i < 0 || j < 0 || i > j {
		t.Fatalf("priv-vm999 at %d, priv-vm1000 at %d: want both listed, in start order", i, j)
	}
	if c := m.StateCounts(); c[StateRunning] != len(want) || c[StateCrashed] != n-len(want) {
		t.Fatalf("StateCounts = %v, want %d running and %d crashed", c, len(want), n-len(want))
	}
}

func TestUsedGaugeTracksLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{Latencies: Latencies{
		Boot:     stats.Constant{V: 5},
		Shutdown: stats.Constant{V: 5},
	}})
	vm := mustStart(t, eng, m, "batch")
	m.Stop(vm.ID, func(error) {})
	eng.RunAll()
	s := m.UsedGauge.Series()
	if s.At(0) != 1 {
		t.Fatalf("gauge at 0 = %v, want 1 (provisioning counts)", s.At(0))
	}
	if s.At(sim.Seconds(30)) != 0 {
		t.Fatalf("gauge after stop = %v, want 0", s.At(sim.Seconds(30)))
	}
}

func TestCrashInjection(t *testing.T) {
	eng := sim.NewEngine()
	var crashed *VM
	m := newManager(t, eng, Config{
		Latencies: Latencies{Boot: stats.Constant{V: 1}},
		CrashMTBF: stats.Constant{V: 100},
		OnCrash:   func(vm *VM) { crashed = vm },
	})
	vm := mustStart(t, eng, m, "batch")
	eng.RunAll()
	if crashed != vm {
		t.Fatal("OnCrash not invoked")
	}
	if vm.State != StateCrashed {
		t.Fatalf("state = %v", vm.State)
	}
	if m.Crashes.Count != 1 {
		t.Fatalf("Crashes = %d", m.Crashes.Count)
	}
	if m.Active() != 0 {
		t.Fatal("crashed VM still occupies capacity")
	}
	// Crash must not fire twice even though the timer was scheduled once.
	if eng.Now() != sim.Seconds(101) {
		t.Fatalf("crash at %v, want 101s", eng.Now())
	}
}

func TestCrashAfterStopIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	crashes := 0
	m := newManager(t, eng, Config{
		Latencies: Latencies{Boot: stats.Constant{V: 1}, Shutdown: stats.Constant{V: 1}},
		CrashMTBF: stats.Constant{V: 100},
		OnCrash:   func(*VM) { crashes++ },
	})
	var vm *VM
	m.Start("batch", func(v *VM, err error) {
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		vm = v
	})
	eng.Run(sim.Seconds(1)) // boot completes; crash timer still pending
	if vm == nil || vm.State != StateRunning {
		t.Fatal("VM not running after boot")
	}
	m.Stop(vm.ID, func(error) {})
	eng.RunAll()
	if crashes != 0 {
		t.Fatal("crash fired on a terminated VM")
	}
	if vm.State != StateTerminated {
		t.Fatalf("state = %v", vm.State)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(sim.NewEngine(), Config{}); err == nil {
		t.Fatal("New without site must fail")
	}
	if _, err := New(sim.NewEngine(), Config{Site: testSite(), Shape: Shape{Cores: -1, MemoryMB: 1}}); err == nil {
		t.Fatal("New with negative shape must fail")
	}
}

func TestDefaultShape(t *testing.T) {
	eng := sim.NewEngine()
	m := newManager(t, eng, Config{})
	if m.Shape() != DefaultShape {
		t.Fatalf("Shape = %+v", m.Shape())
	}
	if DefaultShape.Cores != 2 || DefaultShape.MemoryMB != 3840 {
		t.Fatal("DefaultShape must be the EC2-medium-like 2 cores / 3.75 GB")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateProvisioning: "provisioning",
		StateRunning:      "running",
		StateStopping:     "stopping",
		StateTerminated:   "terminated",
		StateCrashed:      "crashed",
		State(42):         "state(42)",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

// Property: under any interleaving of starts and stops, active VM count
// equals started-minus-released and never exceeds the cap.
func TestPropertyCapacityInvariant(t *testing.T) {
	f := func(ops []bool, capSeed uint8) bool {
		eng := sim.NewEngine()
		maxVMs := int(capSeed%10) + 1
		m, err := New(eng, Config{Site: cluster.New(cluster.Config{
			Name: "p", Nodes: 4, CoresPerNode: 16, MemoryMBPerNode: 65536,
		}), MaxVMs: maxVMs})
		if err != nil {
			return false
		}
		m.RegisterImage("img")
		var running []*VM
		for _, isStart := range ops {
			if isStart {
				m.Start("img", func(vm *VM, err error) {
					if err == nil {
						running = append(running, vm)
					}
				})
			} else if len(running) > 0 {
				vm := running[0]
				running = running[1:]
				m.Stop(vm.ID, func(error) {})
			}
			eng.RunAll()
			if m.Active() > maxVMs || m.Active() < 0 {
				return false
			}
		}
		return m.Active() == len(running)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
