// Package api defines the typed, JSON-serializable data-transfer
// objects of the Meryn control plane — the open-platform counterpart of
// the paper's uniform submission interface (§3.3) and multi-round SLA
// negotiation (§4.2.1). The core session API speaks internal types
// (workload.App, sla.Offer, core.AppStatus); this package is the wire
// form the HTTP server (internal/api/server), the merynd daemon and the
// meryn CLI exchange. Times cross the wire as float64 seconds of
// virtual time.
package api

import (
	"fmt"

	"meryn/internal/core"
	"meryn/internal/framework/serverless"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/sla"
	"meryn/internal/workload"
)

// App is the uniform submission template on the wire. Exactly the
// fields a user of the paper's open platform supplies: application
// characteristics and requirements, never placement.
type App struct {
	ID   string `json:"id,omitempty"` // server-assigned when empty
	Type string `json:"type"`         // batch | mapreduce | service
	VC   string `json:"vc,omitempty"` // target VC; routed by type when empty

	// Arrival time in virtual seconds; 0 (or the past) means "now".
	SubmitAtS float64 `json:"submit_at_s,omitempty"`

	// Batch shape.
	VMs   int     `json:"vms,omitempty"`    // dedicated VMs requested
	WorkS float64 `json:"work_s,omitempty"` // reference CPU-seconds

	// MapReduce shape.
	MapTasks    int     `json:"map_tasks,omitempty"`
	ReduceTasks int     `json:"reduce_tasks,omitempty"`
	MapWorkS    float64 `json:"map_work_s,omitempty"`
	ReduceWorkS float64 `json:"reduce_work_s,omitempty"`

	// Service shape.
	Replicas     int     `json:"replicas,omitempty"`
	SvcRate      float64 `json:"svc_rate,omitempty"` // requests/s per replica
	DurationS    float64 `json:"duration_s,omitempty"`
	DeclaredPeak float64 `json:"declared_peak,omitempty"`
	Load         *Load   `json:"load,omitempty"`

	// Serverless shape (extends the service shape: Replicas is the
	// instance ceiling, SvcRate the per-instance capacity).
	ColdStartS  float64 `json:"cold_start_s,omitempty"`  // boot delay per instance
	ConcTarget  float64 `json:"conc_target,omitempty"`   // in-flight requests per instance
	IdleWindowS float64 `json:"idle_window_s,omitempty"` // idle seconds before scale-to-zero
	Revision    string  `json:"revision,omitempty"`      // initial revision name
}

// Load is the wire form of a service's offered-load profile.
type Load struct {
	Base   float64 `json:"base"` // steady requests/s
	Bursts []struct {
		AtS       float64 `json:"at_s"`
		DurationS float64 `json:"duration_s"`
		Factor    float64 `json:"factor"`
	} `json:"bursts,omitempty"`

	// On/off square wave gating the profile (idle-gap traffic for
	// serverless applications): active for OnOffActiveS out of every
	// OnOffPeriodS seconds. Zero period means always on.
	OnOffPeriodS float64 `json:"on_off_period_s,omitempty"`
	OnOffActiveS float64 `json:"on_off_active_s,omitempty"`
}

// ToWorkload validates the DTO and converts it to the internal
// submission template.
func (a App) ToWorkload() (workload.App, error) {
	t := workload.AppType(a.Type)
	switch t {
	case workload.TypeBatch, workload.TypeMapReduce, workload.TypeService, workload.TypeServerless:
	case "":
		return workload.App{}, fmt.Errorf("api: submission without a type")
	default:
		return workload.App{}, fmt.Errorf("api: unknown application type %q", a.Type)
	}
	w := workload.App{
		ID:           a.ID,
		Type:         t,
		VC:           a.VC,
		SubmitAt:     sim.Seconds(a.SubmitAtS),
		VMs:          a.VMs,
		Work:         a.WorkS,
		MapTasks:     a.MapTasks,
		ReduceTasks:  a.ReduceTasks,
		MapWork:      a.MapWorkS,
		ReduceWork:   a.ReduceWorkS,
		Replicas:     a.Replicas,
		SvcRate:      a.SvcRate,
		DurationS:    a.DurationS,
		DeclaredPeak: a.DeclaredPeak,
		ColdStartS:   a.ColdStartS,
		ConcTarget:   a.ConcTarget,
		IdleWindowS:  a.IdleWindowS,
		Revision:     a.Revision,
	}
	if a.Load != nil {
		lp := &workload.LoadProfile{Base: a.Load.Base}
		for _, b := range a.Load.Bursts {
			lp.Bursts = append(lp.Bursts, workload.Burst{
				At:       sim.Seconds(b.AtS),
				Duration: sim.Seconds(b.DurationS),
				Factor:   b.Factor,
			})
		}
		if a.Load.OnOffPeriodS > 0 {
			lp.OnOff = &workload.OnOff{
				Period: sim.Seconds(a.Load.OnOffPeriodS),
				Active: sim.Seconds(a.Load.OnOffActiveS),
			}
		}
		w.Load = lp
	}
	return w, nil
}

// FromWorkload converts an internal submission template to its wire
// form (the load profile's diurnal component has no wire form and is
// dropped).
func FromWorkload(w workload.App) App {
	a := App{
		ID:           w.ID,
		Type:         string(w.Type),
		VC:           w.VC,
		SubmitAtS:    sim.ToSeconds(w.SubmitAt),
		VMs:          w.VMs,
		WorkS:        w.Work,
		MapTasks:     w.MapTasks,
		ReduceTasks:  w.ReduceTasks,
		MapWorkS:     w.MapWork,
		ReduceWorkS:  w.ReduceWork,
		Replicas:     w.Replicas,
		SvcRate:      w.SvcRate,
		DurationS:    w.DurationS,
		DeclaredPeak: w.DeclaredPeak,
		ColdStartS:   w.ColdStartS,
		ConcTarget:   w.ConcTarget,
		IdleWindowS:  w.IdleWindowS,
		Revision:     w.Revision,
	}
	if w.Load != nil {
		l := &Load{Base: w.Load.Base}
		for _, b := range w.Load.Bursts {
			l.Bursts = append(l.Bursts, struct {
				AtS       float64 `json:"at_s"`
				DurationS float64 `json:"duration_s"`
				Factor    float64 `json:"factor"`
			}{sim.ToSeconds(b.At), sim.ToSeconds(b.Duration), b.Factor})
		}
		if w.Load.OnOff != nil {
			l.OnOffPeriodS = sim.ToSeconds(w.Load.OnOff.Period)
			l.OnOffActiveS = sim.ToSeconds(w.Load.OnOff.Active)
		}
		a.Load = l
	}
	return a
}

// Offer is one (deadline, price) proposal on the wire. For service
// contracts the time column is the achievable p95 target.
type Offer struct {
	Index     int     `json:"index"`
	NumVMs    int     `json:"num_vms"`
	DeadlineS float64 `json:"deadline_s"`
	Price     float64 `json:"price"`
}

// OffersFromSLA converts a proposal set.
func OffersFromSLA(offers []sla.Offer) []Offer {
	out := make([]Offer, len(offers))
	for i, o := range offers {
		out[i] = Offer{
			Index:     i,
			NumVMs:    o.NumVMs,
			DeadlineS: sim.ToSeconds(o.Deadline),
			Price:     o.Price,
		}
	}
	return out
}

// Contract is an agreed SLA on the wire.
type Contract struct {
	AppID     string  `json:"app_id"`
	NumVMs    int     `json:"num_vms"`
	DeadlineS float64 `json:"deadline_s"` // relative to submission
	Price     float64 `json:"price"`
	VMPrice   float64 `json:"vm_price"`
	ExecEstS  float64 `json:"exec_est_s"`
	PenaltyN  float64 `json:"penalty_n"`

	// Service SLO terms (present for service contracts only).
	SLO *SLO `json:"slo,omitempty"`

	// Per-invocation terms (serverless contracts only): the metered
	// charge per served request and the spend ceiling the quote doubles
	// as.
	PerInvocation float64 `json:"per_invocation,omitempty"`
	CostCap       float64 `json:"cost_cap,omitempty"`
}

// SLO is the latency/availability objective of a service contract on
// the wire.
type SLO struct {
	TargetP95S         float64 `json:"target_p95_s"`
	Availability       float64 `json:"availability"`
	IntervalS          float64 `json:"interval_s"`
	PenaltyPerInterval float64 `json:"penalty_per_interval"`
}

// ContractFromSLA converts an agreed contract.
func ContractFromSLA(c *sla.Contract) *Contract {
	if c == nil {
		return nil
	}
	out := &Contract{
		AppID:     c.AppID,
		NumVMs:    c.NumVMs,
		DeadlineS: sim.ToSeconds(c.Deadline),
		Price:     c.Price,
		VMPrice:   c.VMPrice,
		ExecEstS:  sim.ToSeconds(c.ExecEst),
		PenaltyN:  c.PenaltyN,

		PerInvocation: c.PerInvocation,
		CostCap:       c.CostCap,
	}
	if c.SLO != nil {
		out.SLO = &SLO{
			TargetP95S:         sim.ToSeconds(c.SLO.TargetP95),
			Availability:       c.SLO.Availability,
			IntervalS:          sim.ToSeconds(c.SLO.Interval),
			PenaltyPerInterval: c.SLO.PenaltyPerInterval,
		}
	}
	return out
}

// AppStatus is a submission snapshot on the wire.
type AppStatus struct {
	ID    string `json:"id"`
	VC    string `json:"vc,omitempty"`
	Type  string `json:"type,omitempty"`
	Phase string `json:"phase"`

	Round     int       `json:"round,omitempty"`
	Offers    []Offer   `json:"offers,omitempty"` // present while negotiating
	Contract  *Contract `json:"contract,omitempty"`
	Rejection string    `json:"rejection,omitempty"`

	SubmitS     float64 `json:"submit_s"`
	StartS      float64 `json:"start_s,omitempty"`
	EndS        float64 `json:"end_s,omitempty"`
	DeadlineS   float64 `json:"deadline_s,omitempty"` // absolute
	Price       float64 `json:"price,omitempty"`
	Penalty     float64 `json:"penalty,omitempty"`
	Cost        float64 `json:"cost,omitempty"`
	NumVMs      int     `json:"num_vms,omitempty"`
	Placement   string  `json:"placement,omitempty"`
	Replicas    int     `json:"replicas,omitempty"`
	Suspensions int     `json:"suspensions,omitempty"`
}

// StatusFrom converts a core snapshot.
func StatusFrom(s core.AppStatus) AppStatus {
	out := AppStatus{
		ID:          s.ID,
		VC:          s.VC,
		Type:        s.Type,
		Phase:       string(s.Phase),
		Round:       s.Round,
		Offers:      OffersFromSLA(s.Offers),
		Contract:    ContractFromSLA(s.Contract),
		Rejection:   s.Rejection,
		SubmitS:     sim.ToSeconds(s.SubmitTime),
		StartS:      sim.ToSeconds(s.StartTime),
		EndS:        sim.ToSeconds(s.EndTime),
		DeadlineS:   sim.ToSeconds(s.Deadline),
		Price:       s.Price,
		Penalty:     s.Penalty,
		Cost:        s.Cost,
		NumVMs:      s.NumVMs,
		Replicas:    s.Replicas,
		Suspensions: s.Suspensions,
	}
	if len(s.Offers) == 0 {
		out.Offers = nil
	}
	if s.Placement != metrics.PlacementUnknown {
		out.Placement = s.Placement.String()
	}
	return out
}

// VC is a virtual-cluster snapshot on the wire.
type VC struct {
	Name         string `json:"name"`
	Type         string `json:"type"`
	InitialVMs   int    `json:"initial_vms"`
	Avail        int    `json:"avail"`
	OwnedPrivate int    `json:"owned_private"`
	Nodes        int    `json:"nodes"`
	Apps         int    `json:"apps"`
}

// VCFrom converts a core snapshot.
func VCFrom(v core.VCStatus) VC {
	return VC{
		Name:         v.Name,
		Type:         v.Type,
		InitialVMs:   v.InitialVMs,
		Avail:        v.Avail,
		OwnedPrivate: v.OwnedPrivate,
		Nodes:        v.Nodes,
		Apps:         v.Apps,
	}
}

// Metrics is a platform-wide snapshot on the wire.
type Metrics struct {
	NowS        float64          `json:"now_s"`
	PrivateUsed int              `json:"private_used"`
	CloudUsed   int              `json:"cloud_used"`
	CloudSpend  float64          `json:"cloud_spend"`
	SpotSpend   float64          `json:"spot_spend"` // spot-lease share of cloud_spend
	EventsFired uint64           `json:"events_fired"`
	Submitted   int              `json:"submitted"`
	Settled     int              `json:"settled"`
	AuditChecks int64            `json:"audit_checks"`
	NegRounds   int              `json:"negotiation_rounds"`
	Counters    map[string]int64 `json:"counters"`
}

// MetricsFrom converts a core snapshot.
func MetricsFrom(m core.PlatformMetrics) Metrics {
	c := m.Counters
	return Metrics{
		NowS:        sim.ToSeconds(m.Now),
		PrivateUsed: m.PrivateUsed,
		CloudUsed:   m.CloudUsed,
		CloudSpend:  m.CloudSpend,
		SpotSpend:   m.SpotSpend,
		EventsFired: m.EventsFired,
		Submitted:   m.Submitted,
		Settled:     m.Settled,
		AuditChecks: m.AuditChecks,
		NegRounds:   m.NegRounds,
		Counters: map[string]int64{
			"bid_rounds":         c.BidRounds.Count,
			"vm_transfers":       c.VMTransfers.Count,
			"cloud_leases":       c.CloudLeases.Count,
			"cloud_failures":     c.CloudFailures.Count,
			"suspensions":        c.Suspensions.Count,
			"resumes":            c.Resumes.Count,
			"loan_returns":       c.LoanReturns.Count,
			"pending_retries":    c.PendingRetries.Count,
			"rejections":         c.Rejections.Count,
			"violations":         c.Violations.Count,
			"projected":          c.Projected.Count,
			"node_crashes":       c.NodeCrashes.Count,
			"replacements":       c.Replacements.Count,
			"replica_scale_outs": c.ReplicaScaleOuts.Count,
			"replica_scale_ins":  c.ReplicaScaleIns.Count,
			"replica_reclaims":   c.ReplicaReclaims.Count,
			"spot_leases":        c.SpotLeases.Count,
			"spot_revocations":   c.SpotRevocations.Count,
			"spot_fallbacks":     c.SpotFallbacks.Count,
			"cold_starts":        c.ColdStarts.Count,
			"activations":        c.Activations.Count,
			"zero_scales":        c.ZeroScales.Count,
			"cost_cap_throttles": c.CostCapThrottles.Count,
			"revision_deploys":   c.RevisionDeploys.Count,
			"traffic_splits":     c.TrafficSplits.Count,
		},
	}
}

// Revision is the per-revision monitoring view of a serverless
// application on the wire.
type Revision struct {
	Name       string  `json:"name"`
	Weight     int     `json:"weight"`
	Instances  int     `json:"instances"`
	Requests   float64 `json:"requests"`
	ColdStarts int     `json:"cold_starts"`
	CreatedAtS float64 `json:"created_at_s"`
}

// RevisionsFrom converts the framework's revision stats.
func RevisionsFrom(stats []serverless.RevisionStats) []Revision {
	out := make([]Revision, len(stats))
	for i, r := range stats {
		out[i] = Revision{
			Name:       r.Name,
			Weight:     r.Weight,
			Instances:  r.Instances,
			Requests:   r.Requests,
			ColdStarts: r.ColdStarts,
			CreatedAtS: r.CreatedAtS,
		}
	}
	return out
}

// DeployRevisionRequest is the POST /v1/apps/{id}/revisions body.
type DeployRevisionRequest struct {
	Name string `json:"name"`
}

// TrafficSplitRequest is the POST /v1/apps/{id}/traffic body.
type TrafficSplitRequest struct {
	Weights map[string]int `json:"weights"`
}

// Event is one session event on the wire (the NDJSON stream's line
// format).
type Event struct {
	Seq    int     `json:"seq"`
	TimeS  float64 `json:"time_s"`
	AppID  string  `json:"app_id"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail,omitempty"`
}

// EventFrom converts a session event.
func EventFrom(e core.SessionEvent) Event {
	return Event{
		Seq:    e.Seq,
		TimeS:  sim.ToSeconds(e.Time),
		AppID:  e.AppID,
		Kind:   e.Kind,
		Detail: e.Detail,
	}
}

// Error is the uniform JSON error object.
type Error struct {
	Error string `json:"error"`
}
