// Package meryn is an open, SLA-driven, cloud-bursting PaaS — a faithful
// reproduction of Dib, Parlavantzas and Morin, "Meryn: Open, SLA-driven,
// Cloud Bursting PaaS" (ORMaCloud/HPDC 2013).
//
// The platform hosts multiple elastic virtual clusters (VCs) on a fixed
// pool of private VMs. Each VC is owned by one programming framework
// (batch or MapReduce). Applications arrive through a uniform submission
// interface, negotiate an SLA (deadline + price), and are placed by a
// decentralized auction-style resource selection protocol that chooses
// the cheapest of: free local VMs, VMs borrowed from another VC
// (possibly after suspending that VC's applications), suspending local
// applications, or leasing public-cloud VMs (cloud bursting).
//
// Everything runs on a deterministic discrete-event simulation calibrated
// to the paper's measurements, so experiments are exactly reproducible:
//
//	p, err := meryn.New(meryn.DefaultConfig())
//	if err != nil { ... }
//	res, err := p.Run(meryn.PaperWorkload())
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package meryn

import (
	"meryn/internal/core"
	"meryn/internal/exp"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/sla"
	"meryn/internal/workload"
)

// Core platform types.
type (
	// Config assembles a platform; start from DefaultConfig.
	Config = core.Config
	// VCConfig describes one virtual cluster.
	VCConfig = core.VCConfig
	// SpotPolicy opts a VC into preemptible (spot) cloud leasing.
	SpotPolicy = core.SpotPolicy
	// AuditConfig configures the always-on invariant auditor.
	AuditConfig = core.AuditConfig
	// Policy selects Meryn bidding or static partitioning.
	Policy = core.Policy
	// Platform is an assembled deployment.
	Platform = core.Platform
	// Results summarizes one run.
	Results = core.Results
	// Counters aggregates protocol activity.
	Counters = core.Counters
	// Enforcer reacts to SLA violations (extension point).
	Enforcer = core.Enforcer
	// NoopEnforcer records violations without intervening (default).
	NoopEnforcer = core.NoopEnforcer
	// ScaleOutEnforcer leases extra cloud VMs on projected violations.
	ScaleOutEnforcer = core.ScaleOutEnforcer
	// ClusterManager manages one VC (exposed for enforcers).
	ClusterManager = core.ClusterManager
)

// Policies.
const (
	// PolicyMeryn is the paper's decentralized bidding protocol.
	PolicyMeryn = core.PolicyMeryn
	// PolicyStatic is the paper's static-partitioning baseline.
	PolicyStatic = core.PolicyStatic
)

// Session API: the interactive open-platform surface. Open a session
// on a Platform, Submit applications at runtime, respond to SLA offers,
// advance virtual time with Step, observe with Status, and Drain for
// the run summary. Platform.Run is a thin wrapper over this API; the
// merynd daemon serves it over HTTP.
type (
	// Session is an open submission window on a platform.
	Session = core.Session
	// Negotiation is the handle on one submission's SLA negotiation.
	Negotiation = core.Negotiation
	// NegotiationState is a negotiation handle's lifecycle state.
	NegotiationState = core.NegotiationState
	// AppStatus is a point-in-time snapshot of one submission.
	AppStatus = core.AppStatus
	// AppPhase is an application's coarse lifecycle position.
	AppPhase = core.AppPhase
	// SessionEvent is one entry of the session's event log.
	SessionEvent = core.SessionEvent
	// VCStatus is a point-in-time snapshot of one virtual cluster.
	VCStatus = core.VCStatus
	// PlatformMetrics is a platform-wide gauge/counter snapshot.
	PlatformMetrics = core.PlatformMetrics
)

// Negotiation handle states.
const (
	// NegotiationPending: submission scheduled, transfer in flight.
	NegotiationPending = core.NegotiationPending
	// NegotiationOffered: the proposal set awaits a response.
	NegotiationOffered = core.NegotiationOffered
	// NegotiationAccepted: a contract was agreed.
	NegotiationAccepted = core.NegotiationAccepted
	// NegotiationRejected: the submission will not run.
	NegotiationRejected = core.NegotiationRejected
)

// Application phases reported by Session.Status.
const (
	PhasePending     = core.PhasePending
	PhaseNegotiating = core.PhaseNegotiating
	PhaseRejected    = core.PhaseRejected
	PhasePlacing     = core.PhasePlacing
	PhaseQueued      = core.PhaseQueued
	PhaseRunning     = core.PhaseRunning
	PhaseSuspended   = core.PhaseSuspended
	PhaseCompleted   = core.PhaseCompleted
)

// Typed configuration errors (returned by New; match with errors.As).
type (
	// DuplicateVCError reports two VCs sharing a name.
	DuplicateVCError = core.DuplicateVCError
	// SiteError reports a private site that cannot host any VM.
	SiteError = core.SiteError
	// VCError reports an invalid virtual-cluster entry.
	VCError = core.VCError
)

// Workload types.
type (
	// App is the uniform submission template.
	App = workload.App
	// Workload is a time-ordered application stream.
	Workload = workload.Workload
	// AppType selects the VC family.
	AppType = workload.AppType
	// PaperWorkloadConfig parameterizes the paper's synthetic workload.
	PaperWorkloadConfig = workload.PaperConfig
	// GenConfig parameterizes the stochastic workload generators.
	GenConfig = workload.GenConfig
)

// Application types.
const (
	// TypeBatch targets OGE-like batch VCs.
	TypeBatch = workload.TypeBatch
	// TypeMapReduce targets Hadoop-like MapReduce VCs.
	TypeMapReduce = workload.TypeMapReduce
	// TypeService targets elastic long-running-service VCs with
	// latency/availability SLOs.
	TypeService = workload.TypeService
	// TypeServerless targets scale-to-zero function VCs with
	// cold-start-aware SLOs and per-invocation billing.
	TypeServerless = workload.TypeServerless
)

// Service workload types.
type (
	// LoadProfile is an open-loop request-rate shape (base + diurnal +
	// bursts) driving a long-running service.
	LoadProfile = workload.LoadProfile
	// Burst is one transient load spike inside a LoadProfile.
	Burst = workload.Burst
	// ServiceGenConfig parameterizes the service-stream generator.
	ServiceGenConfig = workload.ServiceConfig
	// SLO is the latency/availability objective of a service contract.
	SLO = sla.SLO
)

// GenerateServices builds a stream of long-running service applications
// with latency SLOs (see ServiceGenConfig).
func GenerateServices(cfg ServiceGenConfig) Workload { return workload.Services(cfg) }

// SLA types (negotiation API).
type (
	// Contract is an agreed SLA.
	Contract = sla.Contract
	// Offer is one (deadline, price) proposal.
	Offer = sla.Offer
	// User is a negotiation strategy.
	User = sla.User
	// AcceptFirst takes the first offer (the paper's evaluation users).
	AcceptFirst = sla.AcceptFirst
	// AcceptCheapest takes the lowest-price offer.
	AcceptCheapest = sla.AcceptCheapest
	// DeadlineBound imposes a deadline (urgent applications).
	DeadlineBound = sla.DeadlineBound
	// BudgetBound imposes a price cap (budget-constrained users).
	BudgetBound = sla.BudgetBound
)

// Accounting types.
type (
	// AppRecord is the per-application accounting trail.
	AppRecord = metrics.AppRecord
	// Aggregate condenses record sets into the paper's reported metrics.
	Aggregate = metrics.Aggregate
	// Series is a piecewise-constant usage time series.
	Series = metrics.Series
)

// New builds a platform from a config. The zero-valued fields of cfg are
// filled with the paper's experimental defaults.
func New(cfg Config) (*Platform, error) { return core.NewPlatform(cfg) }

// DefaultConfig returns the paper's §5.2-§5.3 experimental setup: 50
// private VMs split over two batch VCs, one EC2-like cloud with infinite
// capacity, private VM cost 2 units/VM-s and cloud cost 4 units/VM-s.
func DefaultConfig() Config { return core.DefaultConfig() }

// PaperWorkload returns the paper's synthetic workload: 65 single-VM
// batch applications at 5 s inter-arrival, 50 to VC1 and 15 to VC2.
func PaperWorkload() Workload {
	return workload.Paper(workload.DefaultPaperConfig())
}

// CustomPaperWorkload builds the paper workload with altered parameters.
func CustomPaperWorkload(cfg PaperWorkloadConfig) Workload { return workload.Paper(cfg) }

// GenerateWorkload builds a stochastic workload (Poisson, bursty,
// heavy-tailed — see GenConfig).
func GenerateWorkload(cfg GenConfig) Workload { return workload.Generate(cfg) }

// MergeWorkloads combines streams into one time-ordered workload.
func MergeWorkloads(streams ...Workload) Workload { return workload.Merge(streams...) }

// AggregateAll condenses a full ledger.
func AggregateAll(res *Results) Aggregate {
	return metrics.AggregateRecords(res.Ledger.All())
}

// AggregateVC condenses one VC's records.
func AggregateVC(res *Results, vc string) Aggregate {
	return metrics.AggregateRecords(res.Ledger.ByVC(vc))
}

// Seconds converts seconds to the simulation time unit.
func Seconds(s float64) sim.Time { return sim.Seconds(s) }

// RunExperiment executes a named reproduction experiment ("table1",
// "fig5", "fig6", "penalty-n", "billing", "policies", "market",
// "suspension", "sweep") and returns its rendered report. It runs with
// default execution options; use the exp package directly to bound the
// worker pool or override replication counts.
func RunExperiment(name string, seed int64) (string, error) {
	e, ok := exp.Find(name)
	if !ok {
		return "", &UnknownExperimentError{Name: name}
	}
	r, err := e.Run(seed, exp.Options{})
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// Experiments lists the available experiment names with the paper
// artifact each regenerates.
func Experiments() map[string]string {
	out := map[string]string{}
	for _, e := range exp.All() {
		out[e.Name] = e.Artifact
	}
	return out
}

// UnknownExperimentError reports a bad experiment name.
type UnknownExperimentError struct{ Name string }

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	return "meryn: unknown experiment " + e.Name
}
