// Package vmm is the VM management substrate (the role Snooze plays in
// the paper's prototype). It owns the private site's VM lifecycle:
// placement on physical nodes, boot and shutdown latencies, a configurable
// hosting-capacity cap (the paper fixes 50 VMs on 9 nodes), disk images,
// and optional crash injection for failure testing.
//
// The manager is asynchronous in simulated time: Start and Stop return
// immediately and invoke completion callbacks after the sampled operation
// latency, exactly as Meryn's Resource Manager experiences Snooze.
package vmm

import (
	"errors"
	"fmt"

	"meryn/internal/cluster"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/stats"
)

// State is a VM lifecycle state.
type State int

// VM lifecycle states.
const (
	StateProvisioning State = iota // placement accepted, boot in progress
	StateRunning
	StateStopping
	StateTerminated
	StateCrashed
)

// NumStates sizes arrays indexed by State.
const NumStates = int(StateCrashed) + 1

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateProvisioning:
		return "provisioning"
	case StateRunning:
		return "running"
	case StateStopping:
		return "stopping"
	case StateTerminated:
		return "terminated"
	case StateCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Shape is the fixed VM instance shape exchanged between VCs (paper §2:
// coarse-grained VM currency). The default mirrors an EC2 medium
// instance: 2 vCPUs, 3.75 GB.
type Shape struct {
	Cores    int
	MemoryMB int
}

// DefaultShape is the paper's EC2-medium-like instance model.
var DefaultShape = Shape{Cores: 2, MemoryMB: 3840}

// VM is one virtual machine instance.
type VM struct {
	ID          string
	Image       string
	Shape       Shape
	State       State
	Site        string
	SpeedFactor float64 // inherited from the hosting node
	Cloud       bool    // true for public-cloud VMs (set by package cloud)

	node *cluster.Node
}

// NodeID returns the ID of the physical node hosting the VM. Chaos
// campaigns use it to build correlated failure domains: a site outage
// crashes every VM sharing a physical node, not a random VM sample.
func (vm *VM) NodeID() string {
	if vm.node == nil {
		return ""
	}
	return vm.node.ID
}

// Latencies configures VM operation costs. Zero-value fields default to
// constants of zero, which is convenient in unit tests; realistic values
// come from DefaultLatencies.
type Latencies struct {
	Boot     stats.Dist // image deploy + boot + daemon start
	Shutdown stats.Dist // drain + halt
}

// DefaultLatencies reflects the calibration in DESIGN.md: combined with
// the Meryn pipeline latencies it reproduces the paper's Table 1
// processing-time ranges.
func DefaultLatencies() Latencies {
	return Latencies{
		Boot:     stats.Uniform{Lo: 15, Hi: 22},
		Shutdown: stats.Uniform{Lo: 8, Hi: 12},
	}
}

// Errors returned by Manager operations.
var (
	ErrCapacity  = errors.New("vmm: hosting capacity exhausted")
	ErrNotFound  = errors.New("vmm: no such VM")
	ErrBadState  = errors.New("vmm: VM is not in a valid state for this operation")
	ErrNoImage   = errors.New("vmm: image not registered")
	ErrZeroShape = errors.New("vmm: VM shape has no resources")
)

// Config configures a Manager.
type Config struct {
	Site      *cluster.Site
	Shape     Shape
	MaxVMs    int // hosting-capacity cap; 0 means physical capacity only
	Latencies Latencies
	Seed      int64

	// CrashMTBF, when non-nil, samples the time-to-crash for each
	// running VM (failure injection). OnCrash is invoked after a crash.
	CrashMTBF stats.Dist
	OnCrash   func(*VM)
}

// Manager is the VM management system for one site.
type Manager struct {
	eng    *sim.Engine
	cfg    Config
	rng    *sim.RNG
	images map[string]bool
	vms    map[string]*VM
	// started holds every VM ever started, in start order: VM number i
	// sits at index i. No VM is ever removed, so a walk over it sees
	// each VM once, without hashing or formatting an ID.
	started []*VM
	active  int // provisioning + running + stopping

	// UsedGauge tracks VMs that are provisioning or running.
	UsedGauge *metrics.Gauge
	// Ops counts completed lifecycle operations.
	Starts  metrics.Counter
	Stops   metrics.Counter
	Crashes metrics.Counter
}

// New returns a Manager on the given engine.
func New(eng *sim.Engine, cfg Config) (*Manager, error) {
	if cfg.Site == nil {
		return nil, errors.New("vmm: Config.Site is required")
	}
	if cfg.Shape == (Shape{}) {
		cfg.Shape = DefaultShape
	}
	if cfg.Shape.Cores <= 0 || cfg.Shape.MemoryMB <= 0 {
		return nil, ErrZeroShape
	}
	if cfg.Latencies.Boot == nil {
		cfg.Latencies.Boot = stats.Constant{}
	}
	if cfg.Latencies.Shutdown == nil {
		cfg.Latencies.Shutdown = stats.Constant{}
	}
	phys := cfg.Site.VMCapacity(cfg.Shape.Cores, cfg.Shape.MemoryMB)
	if cfg.MaxVMs <= 0 || cfg.MaxVMs > phys {
		cfg.MaxVMs = phys
	}
	return &Manager{
		eng:       eng,
		cfg:       cfg,
		rng:       sim.NewRNG(cfg.Seed, "vmm/"+cfg.Site.Name),
		images:    make(map[string]bool),
		vms:       make(map[string]*VM),
		UsedGauge: metrics.NewGauge("vmm/" + cfg.Site.Name + "/used"),
	}, nil
}

// RegisterImage makes a framework disk image available (paper §3.5: "for
// each framework there is a customized VM disk image").
func (m *Manager) RegisterImage(name string) { m.images[name] = true }

// Capacity returns the hosting-capacity cap.
func (m *Manager) Capacity() int { return m.cfg.MaxVMs }

// Active returns the number of VMs currently occupying capacity.
func (m *Manager) Active() int { return m.active }

// Free returns remaining hosting capacity.
func (m *Manager) Free() int { return m.cfg.MaxVMs - m.active }

// Shape returns the managed instance shape.
func (m *Manager) Shape() Shape { return m.cfg.Shape }

// Get returns a VM by ID.
func (m *Manager) Get(id string) (*VM, error) {
	vm, ok := m.vms[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return vm, nil
}

// List returns all VMs in a given state, in start order.
func (m *Manager) List(s State) []*VM {
	var out []*VM
	for _, vm := range m.started {
		if vm.State == s {
			out = append(out, vm)
		}
	}
	return out
}

// StateCounts returns how many tracked VMs are in each lifecycle state,
// indexed by State.
func (m *Manager) StateCounts() [NumStates]int {
	var out [NumStates]int
	for _, vm := range m.started {
		out[vm.State]++
	}
	return out
}

// Audit checks the manager's internal conservation invariants: the
// active count equals the recount of provisioning+running+stopping VMs,
// stays within [0, Capacity], and agrees with UsedGauge. It returns the
// recount it made, so a caller cross-checking VM states walks the table
// once, and the first violation found, or nil. The platform Auditor
// calls this at every audit barrier.
func (m *Manager) Audit() ([NumStates]int, error) {
	counts := m.StateCounts()
	live := counts[StateProvisioning] + counts[StateRunning] + counts[StateStopping]
	if live != m.active {
		return counts, fmt.Errorf("vmm: active=%d but state recount=%d (prov=%d run=%d stop=%d)",
			m.active, live, counts[StateProvisioning], counts[StateRunning], counts[StateStopping])
	}
	if m.active < 0 || m.active > m.cfg.MaxVMs {
		return counts, fmt.Errorf("vmm: active=%d outside [0, %d]", m.active, m.cfg.MaxVMs)
	}
	if g := m.UsedGauge.Value(); g != m.active {
		return counts, fmt.Errorf("vmm: used gauge %d disagrees with active %d", g, m.active)
	}
	return counts, nil
}

// vmID names the i-th VM started: "%s-vm%03d".
func (m *Manager) vmID(i int) string {
	return sim.PaddedID(m.cfg.Site.Name+"-vm", i, 3)
}

// Start provisions a VM with the given framework image and calls done
// when it is running (or immediately, synchronously, when placement
// fails). The error paths are: unregistered image, capacity cap, or no
// physical node with room.
func (m *Manager) Start(image string, done func(*VM, error)) {
	if done == nil {
		panic("vmm: Start with nil completion")
	}
	if !m.images[image] {
		done(nil, fmt.Errorf("%w: %q", ErrNoImage, image))
		return
	}
	if m.active >= m.cfg.MaxVMs {
		done(nil, ErrCapacity)
		return
	}
	node, err := m.cfg.Site.FirstFit(m.cfg.Shape.Cores, m.cfg.Shape.MemoryMB)
	if err != nil {
		done(nil, fmt.Errorf("vmm: placement failed: %w", err))
		return
	}
	if err := node.Reserve(m.cfg.Shape.Cores, m.cfg.Shape.MemoryMB); err != nil {
		done(nil, err)
		return
	}
	vm := &VM{
		ID:          m.vmID(len(m.started)),
		Image:       image,
		Shape:       m.cfg.Shape,
		State:       StateProvisioning,
		Site:        m.cfg.Site.Name,
		SpeedFactor: node.SpeedFactor,
		node:        node,
	}
	m.vms[vm.ID] = vm
	m.started = append(m.started, vm)
	m.active++
	m.UsedGauge.Add(m.eng.Now(), 1)

	boot := sim.Seconds(m.cfg.Latencies.Boot.Sample(m.rng))
	m.eng.Schedule(boot, func() {
		if vm.State != StateProvisioning {
			return // stopped or crashed while booting
		}
		vm.State = StateRunning
		m.Starts.Inc()
		m.scheduleCrash(vm)
		done(vm, nil)
	})
}

// StartDeployed provisions a VM that is immediately running, bypassing
// boot latency. It models the initial system deployment (paper §3.2: the
// Resource Manager "is responsible for the initial system deployment"),
// which completes before the measurement window opens.
func (m *Manager) StartDeployed(image string) (*VM, error) {
	if !m.images[image] {
		return nil, fmt.Errorf("%w: %q", ErrNoImage, image)
	}
	if m.active >= m.cfg.MaxVMs {
		return nil, ErrCapacity
	}
	node, err := m.cfg.Site.FirstFit(m.cfg.Shape.Cores, m.cfg.Shape.MemoryMB)
	if err != nil {
		return nil, fmt.Errorf("vmm: placement failed: %w", err)
	}
	if err := node.Reserve(m.cfg.Shape.Cores, m.cfg.Shape.MemoryMB); err != nil {
		return nil, err
	}
	vm := &VM{
		ID:          m.vmID(len(m.started)),
		Image:       image,
		Shape:       m.cfg.Shape,
		State:       StateRunning,
		Site:        m.cfg.Site.Name,
		SpeedFactor: node.SpeedFactor,
		node:        node,
	}
	m.vms[vm.ID] = vm
	m.started = append(m.started, vm)
	m.active++
	m.UsedGauge.Add(m.eng.Now(), 1)
	m.Starts.Inc()
	m.scheduleCrash(vm)
	return vm, nil
}

// Stop shuts a VM down and calls done when terminated. Stopping a VM that
// is provisioning aborts the boot. Stopping a terminated or crashed VM
// reports ErrBadState synchronously.
func (m *Manager) Stop(id string, done func(error)) {
	if done == nil {
		panic("vmm: Stop with nil completion")
	}
	vm, ok := m.vms[id]
	if !ok {
		done(fmt.Errorf("%w: %s", ErrNotFound, id))
		return
	}
	if vm.State == StateTerminated || vm.State == StateCrashed || vm.State == StateStopping {
		done(fmt.Errorf("%w: %s is %v", ErrBadState, id, vm.State))
		return
	}
	vm.State = StateStopping
	lat := sim.Seconds(m.cfg.Latencies.Shutdown.Sample(m.rng))
	m.eng.Schedule(lat, func() {
		if vm.State != StateStopping {
			return
		}
		m.release(vm, StateTerminated)
		m.Stops.Inc()
		done(nil)
	})
}

func (m *Manager) release(vm *VM, final State) {
	vm.State = final
	vm.node.Release(vm.Shape.Cores, vm.Shape.MemoryMB)
	m.active--
	m.UsedGauge.Add(m.eng.Now(), -1)
}

// Crash forcibly fails a running VM immediately (deterministic fault
// injection for tests and chaos experiments; stochastic injection uses
// Config.CrashMTBF). OnCrash fires as for a spontaneous crash.
func (m *Manager) Crash(id string) error {
	vm, ok := m.vms[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if vm.State != StateRunning {
		return fmt.Errorf("%w: %s is %v", ErrBadState, id, vm.State)
	}
	m.release(vm, StateCrashed)
	m.Crashes.Inc()
	if m.cfg.OnCrash != nil {
		m.cfg.OnCrash(vm)
	}
	return nil
}

func (m *Manager) scheduleCrash(vm *VM) {
	if m.cfg.CrashMTBF == nil {
		return
	}
	ttf := sim.Seconds(m.cfg.CrashMTBF.Sample(m.rng))
	m.eng.Schedule(ttf, func() {
		if vm.State != StateRunning {
			return
		}
		m.release(vm, StateCrashed)
		m.Crashes.Inc()
		if m.cfg.OnCrash != nil {
			m.cfg.OnCrash(vm)
		}
	})
}
