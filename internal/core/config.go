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

// VCConfig describes one virtual cluster.
type VCConfig struct {
	Name       string
	Type       workload.AppType
	InitialVMs int

	// SlotsPerNode applies to MapReduce VCs (default 2).
	SlotsPerNode int

	// Spot, when non-nil, lets this VC lease preemptible (spot) cloud
	// capacity: bursts bid BidMultiplier x the current quote, Algorithm
	// 1 compares against the discounted spot cost estimate, and work
	// revoked mid-lease is requeued onto replacement capacity.
	Spot *SpotPolicy
}

// SpotPolicy is a VC's preemptible-capacity strategy: how aggressively
// it bids and when it gives up on the market for an application.
// Algorithm 1 values the VC's spot capacity at 0.85 times the on-demand
// quote, an expected-revocation discount.
type SpotPolicy struct {
	// BidMultiplier scales the current market quote into the per-launch
	// bid (default 1.25). Higher bids survive larger upward price
	// swings before revocation; a multiplier of 1 is revoked by the
	// first uptick.
	BidMultiplier float64
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
	if sp.MaxRevocations == 0 {
		sp.MaxRevocations = 2
	}
	if sp.MaxRevocations < 0 {
		return &VCError{Name: vc, Msg: fmt.Sprintf("negative spot revocation budget %d", sp.MaxRevocations)}
	}
	return nil
}

// Fixed platform economics and service-framework parameters. No
// experiment varies them, so they are constants rather than Config
// fields.
const (
	// privateVMCost is the provider-side cost of a private VM in units
	// per VM-second (paper §5.3).
	privateVMCost = 2.0
	// minSuspensionCost is Algorithm 2's minimal suspension cost in
	// units: checkpoint storage plus restart overhead.
	minSuspensionCost = 1000.0
	// serviceTick is the service frameworks' SLO evaluation interval:
	// how often offered load is sampled, p95 recomputed and burn
	// accounted.
	serviceTick = sim.Time(10 * 1e9)
	// serviceAvailability is the clean-interval fraction service SLO
	// contracts require.
	serviceAvailability = 0.95
	// monitorInterval is the Application Controller check period.
	monitorInterval = sim.Time(30 * 1e9)
	// spotCostDiscount is the expected-revocation discount applied to
	// the cloud cost estimate in Algorithm 1's comparison for a VC with
	// a spot policy: the VC values spot capacity below the on-demand
	// quote because the market is expected to spend most of the lease
	// below it.
	spotCostDiscount = 0.85
)

// Config assembles a Meryn platform.
type Config struct {
	Seed   int64
	Policy Policy

	// Site is the private physical site. Zero value defaults to the
	// paper's 9-node parapluie slice. Private VMs have vmm.DefaultShape
	// and vmm.DefaultLatencies.
	Site cluster.Config
	// PrivateVMCap caps private hosting capacity (paper: 50).
	PrivateVMCap int
	// CrashMTBF enables private-VM crash injection when non-nil.
	CrashMTBF stats.Dist

	// VCs lists the virtual clusters (default: two batch VCs, 25 VMs each).
	VCs []VCConfig
	// Clouds lists public providers (default: one EC2-like provider with
	// the paper's pricing: 4 units per VM-second, uniform 38-50 s
	// provisioning).
	Clouds []cloud.Config

	// Economics (paper §5.3): cloud VM cost 4 units/VM-s, user-facing
	// VM price >= cloud cost. Private VMs cost privateVMCost.
	UserVMPrice float64 // default 4
	// PenaltyN is Eq. 3's divisor (default 1: full-rate refund).
	PenaltyN float64
	// MaxPenaltyFrac bounds penalties to a fraction of the price (0 = none).
	MaxPenaltyFrac float64

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
		PrivateVMCap: 50,
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
		UserVMPrice:        4,
		PenaltyN:           1,
		SLAScaleOutLimit:   4,
		ProcessingEstimate: 84,
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
	if c.PrivateVMCap == 0 {
		c.PrivateVMCap = d.PrivateVMCap
	}
	if len(c.VCs) == 0 {
		c.VCs = d.VCs
	}
	if c.Clouds == nil {
		c.Clouds = d.Clouds
	}
	if c.UserVMPrice == 0 {
		c.UserVMPrice = d.UserVMPrice
	}
	if c.PenaltyN == 0 {
		c.PenaltyN = d.PenaltyN
	}
	if c.PenaltyN < 0 {
		return fmt.Errorf("core: negative PenaltyN %g", c.PenaltyN)
	}
	if c.SLAScaleOutLimit == 0 {
		c.SLAScaleOutLimit = d.SLAScaleOutLimit
	}
	if c.ProcessingEstimate == 0 {
		c.ProcessingEstimate = d.ProcessingEstimate
	}
	if c.ProcessingEstimate < 0 {
		return fmt.Errorf("core: negative ProcessingEstimate %g s", c.ProcessingEstimate)
	}
	if c.Enforcer == nil {
		c.Enforcer = NoopEnforcer{}
	}
	if c.UserStrategy == nil {
		c.UserStrategy = func(workload.App) sla.User { return sla.AcceptFirst{} }
	}
	if c.ConservativeSpeed == 0 {
		c.ConservativeSpeed = c.slowestSpeed()
	}
	if c.ConservativeSpeed < 0 {
		return fmt.Errorf("core: negative ConservativeSpeed %g", c.ConservativeSpeed)
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
	if c.Audit == nil {
		c.Audit = &AuditConfig{}
	}
	if c.Audit.Every < 0 {
		return fmt.Errorf("core: negative audit interval %s", c.Audit.Every)
	}
	if c.Audit.Every == 0 {
		c.Audit.Every = sim.Seconds(defaultAuditEveryS)
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
