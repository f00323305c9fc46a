// Package core implements the Meryn system itself: Client Managers,
// per-VC Cluster Managers (generic part + framework-specific adapters),
// Application Controllers, the Resource Manager, the decentralized
// resource selection protocol (paper Algorithm 1), batch bid computation
// (Algorithm 2, plus a MapReduce extension), VM exchange between VCs
// (§3.4) and cloud bursting (§3.5). The static-partitioning baseline the
// paper evaluates against is the same machinery under PolicyStatic.
package core

import (
	"fmt"

	"meryn/internal/cloud"
	"meryn/internal/cluster"
	"meryn/internal/sim"
	"meryn/internal/sla"
	"meryn/internal/stats"
	"meryn/internal/vmm"
	"meryn/internal/workload"
)

// Policy selects the resource-management strategy.
type Policy int

// Policies.
const (
	// PolicyMeryn is the paper's contribution: decentralized bidding
	// with VM exchange, suspension and cloud bursting (Algorithm 1).
	PolicyMeryn Policy = iota
	// PolicyStatic is the paper's baseline: fixed VC partitions, no VM
	// exchange; a VC that runs out of private VMs bursts to the cloud.
	PolicyStatic
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == PolicyStatic {
		return "static"
	}
	return "meryn"
}

// Latencies are the Meryn pipeline costs layered on top of the VM and
// cloud substrate latencies. Their defaults are calibrated so that the
// end-to-end processing times reproduce paper Table 1 (see DESIGN.md).
type Latencies struct {
	ClientTransfer stats.Dist // user -> Client Manager -> Cluster Manager
	Negotiate      stats.Dist // SLA negotiation + executable/data upload
	Dispatch       stats.Dist // template translation + App Controller spawn + framework submit
	BidRound       stats.Dist // CM <-> CM bid collection + cloud quotes
	Configure      stats.Dist // joining a transferred private VM to the framework
	CloudConfigure stats.Dist // joining a leased cloud VM (WAN) to the framework
	SuspendLocal   stats.Dist // checkpointing a local victim application
	SuspendRemote  stats.Dist // checkpointing a victim in another VC
}

// DefaultLatencies returns the Table 1 calibration.
func DefaultLatencies() Latencies {
	return Latencies{
		ClientTransfer: stats.Uniform{Lo: 1, Hi: 3},
		Negotiate:      stats.Uniform{Lo: 3, Hi: 6},
		Dispatch:       stats.Uniform{Lo: 3, Hi: 6},
		BidRound:       stats.Uniform{Lo: 1, Hi: 2},
		Configure:      stats.Uniform{Lo: 9, Hi: 11},
		CloudConfigure: stats.Uniform{Lo: 13, Hi: 17},
		SuspendLocal:   stats.Uniform{Lo: 3, Hi: 4},
		SuspendRemote:  stats.Uniform{Lo: 15, Hi: 18},
	}
}

func (l *Latencies) fillDefaults() {
	d := DefaultLatencies()
	if l.ClientTransfer == nil {
		l.ClientTransfer = d.ClientTransfer
	}
	if l.Negotiate == nil {
		l.Negotiate = d.Negotiate
	}
	if l.Dispatch == nil {
		l.Dispatch = d.Dispatch
	}
	if l.BidRound == nil {
		l.BidRound = d.BidRound
	}
	if l.Configure == nil {
		l.Configure = d.Configure
	}
	if l.CloudConfigure == nil {
		l.CloudConfigure = d.CloudConfigure
	}
	if l.SuspendLocal == nil {
		l.SuspendLocal = d.SuspendLocal
	}
	if l.SuspendRemote == nil {
		l.SuspendRemote = d.SuspendRemote
	}
}

// VCConfig describes one virtual cluster.
type VCConfig struct {
	Name       string
	Type       workload.AppType
	InitialVMs int

	// SlotsPerNode applies to MapReduce VCs (default 2).
	SlotsPerNode int
	// Backfill applies to batch VCs.
	Backfill bool

	// Spot, when non-nil, lets this VC lease preemptible (spot) cloud
	// capacity: bursts bid BidMultiplier x the current quote, Algorithm
	// 1 compares against the discounted spot cost estimate, and work
	// revoked mid-lease is requeued onto replacement capacity.
	Spot *SpotPolicy
}

// SpotPolicy is a VC's preemptible-capacity strategy: how aggressively
// it bids, how it values revocation risk in Algorithm 1's comparison,
// and when it gives up on the market for an application.
type SpotPolicy struct {
	// BidMultiplier scales the current market quote into the per-launch
	// bid (default 1.25). Higher bids survive larger upward price
	// swings before revocation; a multiplier of 1 is revoked by the
	// first uptick.
	BidMultiplier float64
	// CostDiscount is the expected-revocation discount applied to the
	// cloud cost estimate in Algorithm 1's comparison (default 0.85):
	// the VC values spot capacity below the on-demand quote because the
	// market is expected to spend most of the lease below it.
	CostDiscount float64
	// MaxRevocations is how many cloud-node losses one application
	// absorbs before its replacement capacity falls back to on-demand
	// leases (default 2).
	MaxRevocations int
}

// withDefaults normalizes a spot policy in place and validates it.
func (sp *SpotPolicy) withDefaults(vc string) error {
	if sp.BidMultiplier == 0 {
		sp.BidMultiplier = 1.25
	}
	if sp.BidMultiplier < 0 {
		return &VCError{Name: vc, Msg: fmt.Sprintf("negative spot bid multiplier %g", sp.BidMultiplier)}
	}
	if sp.CostDiscount == 0 {
		sp.CostDiscount = 0.85
	}
	if sp.CostDiscount < 0 || sp.CostDiscount > 1 {
		return &VCError{Name: vc, Msg: fmt.Sprintf("spot cost discount %g outside (0,1]", sp.CostDiscount)}
	}
	if sp.MaxRevocations == 0 {
		sp.MaxRevocations = 2
	}
	if sp.MaxRevocations < 0 {
		return &VCError{Name: vc, Msg: fmt.Sprintf("negative spot revocation budget %d", sp.MaxRevocations)}
	}
	return nil
}

// Fallback service-framework parameters.
const (
	defaultServiceTickS        = 10.0
	defaultServiceAvailability = 0.95
)

// Config assembles a Meryn platform.
type Config struct {
	Seed   int64
	Policy Policy

	// Site is the private physical site. Zero value defaults to the
	// paper's 9-node parapluie slice.
	Site cluster.Config
	// Shape is the VM instance shape (default EC2-medium-like).
	Shape vmm.Shape
	// PrivateVMCap caps private hosting capacity (paper: 50).
	PrivateVMCap int
	// VMM configures VM operation latencies (default vmm.DefaultLatencies).
	VMM vmm.Latencies
	// CrashMTBF enables private-VM crash injection when non-nil.
	CrashMTBF stats.Dist

	// VCs lists the virtual clusters (default: two batch VCs, 25 VMs each).
	VCs []VCConfig
	// Clouds lists public providers (default: one EC2-like provider with
	// the paper's pricing: 4 units per VM-second, uniform 38-50 s
	// provisioning).
	Clouds []cloud.Config

	// Economics (paper §5.3): private VM cost 2 units/VM-s, cloud VM cost
	// 4 units/VM-s, user-facing VM price >= cloud cost.
	PrivateVMCost float64 // default 2
	UserVMPrice   float64 // default 4
	// PenaltyN is Eq. 3's divisor (default 1: full-rate refund).
	PenaltyN float64
	// MaxPenaltyFrac bounds penalties to a fraction of the price (0 = none).
	MaxPenaltyFrac float64
	// MinSuspensionCost is Algorithm 2's minimal suspension cost in units
	// (checkpoint storage + restart overhead). Default 1000.
	MinSuspensionCost float64

	// ProcessingEstimate is Eq. 1's processing-time term in seconds; the
	// paper uses the worst measured case (84 s).
	ProcessingEstimate float64
	// ConservativeSpeed is the speed factor used for execution-time
	// estimates (the paper estimates with the slower cloud time, 1670 s
	// for a 1550 s app). 0 derives it from the slowest available node
	// class.
	ConservativeSpeed float64

	// SLAScaleOutLimit bounds the negotiation proposal set: offers range
	// from the requested VM count up to this multiple of it (default 4;
	// 1 reproduces single-offer negotiation).
	SLAScaleOutLimit int
	// DisableSuspension removes options 3 and 4 of Algorithm 1 (ablation).
	DisableSuspension bool
	// Hierarchy, when non-nil, deploys a Snooze-like hierarchical
	// management plane (group leader / group managers / one local
	// controller per physical node) with heartbeat failure detection.
	Hierarchy *vmm.HierarchyConfig
	// MonitorInterval is the Application Controller check period
	// (default 30 s).
	MonitorInterval sim.Time
	// ServiceTick is the service frameworks' SLO evaluation interval:
	// how often offered load is sampled, p95 recomputed and burn
	// accounted (default 10 s).
	ServiceTick sim.Time
	// ServiceAvailability is the clean-interval fraction service SLO
	// contracts require (default 0.95).
	ServiceAvailability float64
	// MetricsMaxPoints, when non-zero, caps each usage series
	// (private-used, cloud-used) via downsampling — useful for long
	// sweeps where exact per-event series would dominate memory. 0 (the
	// default) keeps series exact. Must be 0 or >= 4.
	MetricsMaxPoints int
	// Enforcer handles SLA violations detected by Application
	// Controllers (default: record only).
	Enforcer Enforcer
	// UserStrategy picks the negotiation behaviour per application
	// (default: accept the first offer, as in the paper's evaluation).
	UserStrategy func(workload.App) sla.User

	// Audit configures the always-on invariant auditor. nil (the
	// default) enables it with defaults; set Audit.Disabled to opt out.
	// The auditor is read-only and draws no randomness, so enabling it
	// changes no simulation outcome (see Auditor).
	Audit *AuditConfig

	// Shards partitions the Cluster Managers across that many shard
	// engines that dispatch concurrently within tick windows, with
	// cross-shard effects merged deterministically at a barrier (see
	// internal/core/shard.go). 0 or 1 (the default) runs every Cluster
	// Manager on the platform's one engine. The shard count changes only
	// how the work is dispatched, never the results, for workloads
	// without cross-shard same-instant event ties.
	Shards int
	// ShardWindow is the tick-window width used when Shards > 1
	// (default 10 s). Larger windows amortize barrier cost; the width
	// never changes results, only how often shards synchronize. It must
	// not exceed the settle grace period (300 s).
	ShardWindow sim.Time

	// Latencies configures the Meryn pipeline (default Table 1 calibration).
	Latencies Latencies
}

// paperCloudSpeed is the cloud/private speed ratio implied by the paper's
// measurements: the same application takes 1550 s on a private VM and
// 1670 s on a cloud VM.
const paperCloudSpeed = 1550.0 / 1670.0

// DuplicateVCError reports two virtual clusters configured with the
// same name.
type DuplicateVCError struct{ Name string }

// Error implements error.
func (e *DuplicateVCError) Error() string {
	return fmt.Sprintf("core: duplicate VC name %q", e.Name)
}

// SiteError reports a private site configuration that cannot host any
// VM (e.g. a named site with zero nodes). Only the entirely zero-valued
// Site defaults to the paper's setup; a partially filled one is a
// mistake the platform refuses rather than silently replaces.
type SiteError struct{ Msg string }

// Error implements error.
func (e *SiteError) Error() string { return "core: invalid private site: " + e.Msg }

// VCError reports an invalid virtual-cluster entry.
type VCError struct {
	Name string
	Msg  string
}

// Error implements error.
func (e *VCError) Error() string {
	if e.Name == "" {
		return "core: invalid VC: " + e.Msg
	}
	return fmt.Sprintf("core: invalid VC %q: %s", e.Name, e.Msg)
}

// DefaultConfig returns the paper's §5.2-§5.3 experimental setup.
func DefaultConfig() Config {
	return Config{
		Site: cluster.Config{
			Name:            "private",
			Nodes:           9,
			CoresPerNode:    12,
			MemoryMBPerNode: 49152,
			SpeedFactor:     1.0,
		},
		Shape:        vmm.DefaultShape,
		PrivateVMCap: 50,
		VMM:          vmm.DefaultLatencies(),
		VCs: []VCConfig{
			{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 25},
			{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 25},
		},
		Clouds: []cloud.Config{{
			Name: "cloud1",
			Types: []cloud.InstanceType{{
				Name:        "medium",
				Shape:       vmm.DefaultShape,
				SpeedFactor: paperCloudSpeed,
				Price:       4,
			}},
			ProvisionLatency: stats.Uniform{Lo: 38, Hi: 50},
			TerminateLatency: stats.Uniform{Lo: 1, Hi: 3},
		}},
		PrivateVMCost:      2,
		UserVMPrice:        4,
		PenaltyN:           1,
		SLAScaleOutLimit:   4,
		MinSuspensionCost:  1000,
		ProcessingEstimate: 84,
		MonitorInterval:    sim.Seconds(30),
	}
}

// fillDefaults normalizes a user config in place.
func (c *Config) fillDefaults() error {
	d := DefaultConfig()
	if c.Site == (cluster.Config{}) {
		c.Site = d.Site
	}
	if c.Site.Nodes <= 0 {
		return &SiteError{Msg: fmt.Sprintf("site %q has %d nodes (a private pool needs at least one)", c.Site.Name, c.Site.Nodes)}
	}
	if c.Shape == (vmm.Shape{}) {
		c.Shape = d.Shape
	}
	if c.PrivateVMCap == 0 {
		c.PrivateVMCap = d.PrivateVMCap
	}
	if c.VMM.Boot == nil && c.VMM.Shutdown == nil {
		c.VMM = d.VMM
	}
	if len(c.VCs) == 0 {
		c.VCs = d.VCs
	}
	if c.Clouds == nil {
		c.Clouds = d.Clouds
	}
	if c.PrivateVMCost == 0 {
		c.PrivateVMCost = d.PrivateVMCost
	}
	if c.UserVMPrice == 0 {
		c.UserVMPrice = d.UserVMPrice
	}
	if c.PenaltyN == 0 {
		c.PenaltyN = d.PenaltyN
	}
	if c.MinSuspensionCost == 0 {
		c.MinSuspensionCost = d.MinSuspensionCost
	}
	if c.SLAScaleOutLimit == 0 {
		c.SLAScaleOutLimit = d.SLAScaleOutLimit
	}
	if c.ProcessingEstimate == 0 {
		c.ProcessingEstimate = d.ProcessingEstimate
	}
	if c.MonitorInterval == 0 {
		c.MonitorInterval = d.MonitorInterval
	}
	if c.ServiceTick == 0 {
		c.ServiceTick = sim.Seconds(defaultServiceTickS)
	}
	if c.ServiceAvailability == 0 {
		c.ServiceAvailability = defaultServiceAvailability
	}
	if c.ServiceAvailability < 0 || c.ServiceAvailability > 1 {
		return fmt.Errorf("core: ServiceAvailability %g outside (0,1]", c.ServiceAvailability)
	}
	if c.Enforcer == nil {
		c.Enforcer = NoopEnforcer{}
	}
	if c.UserStrategy == nil {
		c.UserStrategy = func(workload.App) sla.User { return sla.AcceptFirst{} }
	}
	c.Latencies.fillDefaults()
	if c.ConservativeSpeed == 0 {
		c.ConservativeSpeed = c.slowestSpeed()
	}
	seen := map[string]bool{}
	for _, vc := range c.VCs {
		if vc.Name == "" {
			return &VCError{Msg: "empty name"}
		}
		if seen[vc.Name] {
			return &DuplicateVCError{Name: vc.Name}
		}
		seen[vc.Name] = true
		if vc.Type != workload.TypeBatch && vc.Type != workload.TypeMapReduce &&
			vc.Type != workload.TypeService && vc.Type != workload.TypeServerless {
			return &VCError{Name: vc.Name, Msg: fmt.Sprintf("unsupported type %q", vc.Type)}
		}
		if vc.InitialVMs < 0 {
			return &VCError{Name: vc.Name, Msg: fmt.Sprintf("negative InitialVMs %d", vc.InitialVMs)}
		}
		if vc.Spot != nil {
			if err := vc.Spot.withDefaults(vc.Name); err != nil {
				return err
			}
		}
	}
	if c.MetricsMaxPoints != 0 && c.MetricsMaxPoints < 4 {
		return fmt.Errorf("core: MetricsMaxPoints %d must be 0 (exact) or >= 4", c.MetricsMaxPoints)
	}
	if c.Audit == nil {
		c.Audit = &AuditConfig{}
	}
	if c.Audit.Every < 0 {
		return fmt.Errorf("core: negative audit interval %s", c.Audit.Every)
	}
	if c.Audit.Every == 0 {
		c.Audit.Every = sim.Seconds(defaultAuditEveryS)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: negative shard count %d", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.ShardWindow < 0 {
		return fmt.Errorf("core: negative shard window %s", c.ShardWindow)
	}
	if c.ShardWindow == 0 {
		c.ShardWindow = sim.Seconds(10)
	}
	if c.ShardWindow > settleGrace {
		return fmt.Errorf("core: shard window %s exceeds the settle grace period %s", c.ShardWindow, settleGrace)
	}
	if c.UserVMPrice < c.cheapestCloudPrice() {
		return fmt.Errorf("core: user VM price %g below cloud VM cost %g (unbounded platform losses, paper §4.2.1)",
			c.UserVMPrice, c.cheapestCloudPrice())
	}
	return nil
}

// slowestSpeed finds the most pessimistic node speed: the private site's
// speed or the slowest cloud instance type, whichever is lower.
func (c *Config) slowestSpeed() float64 {
	slowest := c.Site.SpeedFactor
	if slowest <= 0 {
		slowest = 1.0
	}
	for _, cc := range c.Clouds {
		for _, it := range cc.Types {
			s := it.SpeedFactor
			if s <= 0 {
				s = 1.0
			}
			if s < slowest {
				slowest = s
			}
		}
	}
	return slowest
}

func (c *Config) cheapestCloudPrice() float64 {
	cheapest := 0.0
	for _, cc := range c.Clouds {
		for _, it := range cc.Types {
			if cheapest == 0 || it.Price < cheapest {
				cheapest = it.Price
			}
		}
	}
	return cheapest
}
