package core

import (
	"fmt"
	"sort"
	"sync"

	"meryn/internal/cloud"
	"meryn/internal/cluster"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/vmm"
	"meryn/internal/workload"
)

// Counters aggregates protocol activity over a run.
type Counters struct {
	BidRounds      metrics.Counter
	VMTransfers    metrics.Counter // private VMs moved between VCs
	CloudLeases    metrics.Counter
	CloudFailures  metrics.Counter
	Suspensions    metrics.Counter
	Resumes        metrics.Counter
	LoanReturns    metrics.Counter
	PendingRetries metrics.Counter
	Rejections     metrics.Counter
	Violations     metrics.Counter // SLA violations observed by App Controllers
	Projected      metrics.Counter // projected (early-warning) violations
	NodeCrashes    metrics.Counter // node crashes observed by CMs (private VMs and cloud leases)
	Replacements   metrics.Counter // replacement private VMs provisioned after private crashes

	// Service elasticity activity.
	ReplicaScaleOuts metrics.Counter // controller-driven target raises
	ReplicaScaleIns  metrics.Counter // controller-driven target cuts
	ReplicaReclaims  metrics.Counter // replicas reclaimed by winning bids

	// Preemptible (spot) capacity activity.
	SpotLeases      metrics.Counter // spot instances leased
	SpotRevocations metrics.Counter // attached spot leases revoked by the market
	SpotFallbacks   metrics.Counter // lease decisions forced from spot to on-demand

	// Serverless activity.
	ColdStarts       metrics.Counter // function instances booted from cold
	Activations      metrics.Counter // scale-from-zero episodes
	ZeroScales       metrics.Counter // idle functions scaled to zero
	CostCapThrottles metrics.Counter // functions clamped at their metered cost cap
	RevisionDeploys  metrics.Counter // new immutable revisions deployed
	TrafficSplits    metrics.Counter // traffic-split changes applied
}

// Platform is one assembled Meryn deployment: engine, substrates,
// managers and metrics. Build it with NewPlatform, drive it with Run.
type Platform struct {
	Eng    *sim.Engine
	cfg    Config
	VMM    *vmm.Manager
	Clouds []*cloud.Provider
	RM     *ResourceManager
	Client *ClientManager

	cms        map[string]*ClusterManager
	cmOrder    []string
	cloudTypes map[string][]string // provider name -> instance type names

	Ledger      *metrics.Ledger
	PrivateUsed *metrics.Gauge // private VMs executing applications
	CloudUsed   *metrics.Gauge // cloud VMs executing applications
	Counters    Counters

	// Audit is the always-on invariant auditor (nil when disabled via
	// Config.Audit.Disabled).
	Audit *Auditor

	remaining int // unsettled applications in the open session

	// sessMu guards the open/close transitions of session. Engine
	// callbacks read it while holding the driving session's own mutex;
	// lock order is always session.mu before sessMu.
	sessMu  sync.Mutex
	session *Session

	// nodes indexes every attached node (private VM or cloud instance)
	// by ID; its record names the Cluster Manager holding it. Crashes
	// and revocations are routed through it, and each CM walks its own
	// attached slice.
	nodes map[string]*nodeInfo

	// pollControllers puts batch Application Controllers on the
	// per-interval poll: the reference the event-driven discipline is
	// tested against (TestControllerInvarianceUnderCrashes). Tests set
	// it before the first dispatch.
	pollControllers bool
}

// currentSession returns the open session (nil when none is).
func (p *Platform) currentSession() *Session {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	return p.session
}

// sessionNeg returns the open session's negotiation handle for an
// application (nil without a session, or for apps the session does not
// track).
func (p *Platform) sessionNeg(appID string) *Negotiation {
	s := p.currentSession()
	if s == nil {
		return nil
	}
	return s.negs[appID]
}

// sessionEmit appends to the open session's event log, if any.
func (p *Platform) sessionEmit(appID, kind, detail string) {
	if s := p.currentSession(); s != nil {
		s.emitLocked(appID, kind, detail)
	}
}

// appSettled marks one application as finished or rejected; Run stops
// stepping once every submitted application settles. Its ledger record,
// if it has one, gets its last audit check here: nothing writes a
// settled record again. cost is the record's cost at the previous audit
// barrier (0 for an application that never ran). Settling with nothing
// left unsettled means some application settled twice, and panics.
func (p *Platform) appSettled(id string, cost float64) {
	if p.remaining == 0 {
		panic(fmt.Sprintf("core: application %s settled with no application left unsettled (settled twice?)", id))
	}
	p.remaining--
	if rec := p.Ledger.Get(id); rec != nil {
		p.Audit.freeze(rec, cost)
	}
}

// handleCrash routes a crashed private VM to the Cluster Manager that
// owns it, via the platform-wide node index (O(1), where the original
// implementation scanned every VC's node table). VMs crashing
// mid-transfer (owned by no CM) need no handling: the transfer
// protocol's completions deal with them.
func (p *Platform) handleCrash(vm *vmm.VM) {
	if info := p.nodes[vm.ID]; info != nil {
		info.cm.handleNodeCrash(info)
	}
}

// handleRevocation routes a revoked spot lease to the Cluster Manager
// holding it, via the node index. Leases revoked before they attached
// (mid-configure) need no routing: the lease completions observe the
// terminated state.
func (p *Platform) handleRevocation(inst *cloud.Instance) {
	if info := p.nodes[inst.ID]; info != nil {
		info.cm.handleCloudRevocation(info)
	}
}

// NewPlatform validates the config, builds every component and performs
// the initial deployment (VM images registered everywhere, initial VMs
// started and attached to their frameworks).
func NewPlatform(cfg Config) (*Platform, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	p := &Platform{
		Eng:         eng,
		cfg:         cfg,
		cms:         make(map[string]*ClusterManager),
		cloudTypes:  make(map[string][]string),
		nodes:       make(map[string]*nodeInfo),
		Ledger:      metrics.NewLedger(),
		PrivateUsed: metrics.NewGauge("private-used"),
		CloudUsed:   metrics.NewGauge("cloud-used"),
	}

	site := cluster.New(cfg.Site)
	m, err := vmm.New(eng, vmm.Config{
		Site:      site,
		MaxVMs:    cfg.PrivateVMCap,
		Latencies: vmm.DefaultLatencies(),
		Seed:      cfg.Seed,
		CrashMTBF: cfg.CrashMTBF,
		OnCrash:   p.handleCrash,
	})
	if err != nil {
		return nil, err
	}
	p.VMM = m

	total := 0
	for _, vcCfg := range cfg.VCs {
		total += vcCfg.InitialVMs
	}
	if total > m.Capacity() {
		return nil, fmt.Errorf("core: initial VM allocation %d exceeds private capacity %d", total, m.Capacity())
	}

	for i := range cfg.Clouds {
		cc := cfg.Clouds[i]
		if cc.Seed == 0 {
			cc.Seed = cfg.Seed
		}
		prov, err := cloud.New(eng, cc)
		if err != nil {
			return nil, err
		}
		prov.SetOnRevoke(p.handleRevocation)
		p.Clouds = append(p.Clouds, prov)
		var names []string
		for _, it := range cc.Types {
			names = append(names, it.Name)
		}
		sort.Strings(names)
		p.cloudTypes[prov.Name()] = names
	}
	p.RM = NewResourceManager(eng, m, p.Clouds)

	for _, vcCfg := range cfg.VCs {
		cm, err := newClusterManager(p, vcCfg)
		if err != nil {
			return nil, err
		}
		p.cms[vcCfg.Name] = cm
		p.cmOrder = append(p.cmOrder, vcCfg.Name)
		// Save the framework image in the VMM and every cloud (§3.5).
		m.RegisterImage(cm.Image())
		for _, prov := range p.Clouds {
			prov.RegisterImage(cm.Image())
		}
	}
	p.Client = NewClientManager(p)

	// Initial deployment (§3.2, Resource Manager duty).
	for _, name := range p.cmOrder {
		cm := p.cms[name]
		for i := 0; i < cm.cfg.InitialVMs; i++ {
			vm, err := p.RM.DeployVM(cm.Image())
			if err != nil {
				return nil, fmt.Errorf("core: deploying VC %s: %w", name, err)
			}
			cm.attachPrivate(vm.ID, vm.SpeedFactor)
		}
	}
	p.Audit = newAuditor(p, cfg.Audit)
	return p, nil
}

// Config returns the normalized configuration.
func (p *Platform) Config() Config { return p.cfg }

// CM returns a Cluster Manager by VC name.
func (p *Platform) CM(name string) (*ClusterManager, bool) {
	cm, ok := p.cms[name]
	return cm, ok
}

// VCNames returns VC names in configuration order.
func (p *Platform) VCNames() []string { return p.cmOrder }

// Results summarizes one run.
type Results struct {
	Policy         Policy
	Ledger         *metrics.Ledger
	PrivateSeries  *metrics.Series
	CloudSeries    *metrics.Series
	Counters       Counters
	CompletionTime float64 // seconds: last application end
	CloudSpend     float64 // total provider-side cloud charges
	SpotSpend      float64 // spot-lease share of CloudSpend
	EventsFired    uint64
	AuditChecks    int64 // invariant audits performed (0 when disabled)
}

// settleGrace is how long Run keeps simulating after the last
// application settles, so that in-flight VM transfers, loan returns and
// cloud lease terminations complete. It only matters when self-renewing
// events (crash injection) keep the queue from draining naturally.
const settleGrace = sim.Time(300 * 1e9)

// Run is the closed-world batch entry point, now a thin wrapper over
// the session API: open a session, schedule every workload entry at its
// arrival time with the platform's negotiation strategy, and drain. It
// reproduces the original monolithic Run event for event.
func (p *Platform) Run(w workload.Workload) (*Results, error) {
	// Validate the whole workload before scheduling anything, so a bad
	// entry leaves the platform pristine (the pre-session invariant).
	ids := make(map[string]bool, len(w))
	for _, app := range w {
		if app.ID == "" {
			return nil, fmt.Errorf("core: workload entry without an ID")
		}
		if ids[app.ID] {
			return nil, fmt.Errorf("core: duplicate submission %q", app.ID)
		}
		ids[app.ID] = true
		if app.VC == "" {
			continue // routed by application type at submission
		}
		if _, ok := p.cms[app.VC]; !ok {
			return nil, fmt.Errorf("core: app %s targets unknown VC %q", app.ID, app.VC)
		}
	}
	s, err := p.Open()
	if err != nil {
		return nil, err
	}
	// Bulk submission: pre-size the accounting structures once (the
	// scale scenario submits 10^6 applications).
	p.Ledger.Reserve(len(w))
	for i := range w {
		if _, err := s.SubmitWith(w[i], nil); err != nil {
			s.close() // unreachable after upfront validation; belt and braces
			return nil, err
		}
	}
	return s.Drain()
}

// buildResults summarizes the platform's state after a drain.
func (p *Platform) buildResults() *Results {
	res := &Results{
		Policy:        p.cfg.Policy,
		Ledger:        p.Ledger,
		PrivateSeries: p.PrivateUsed.Series(),
		CloudSeries:   p.CloudUsed.Series(),
		Counters:      p.Counters,
		EventsFired:   p.Eng.Fired(),
	}
	if p.Audit != nil {
		res.AuditChecks = p.Audit.Checks
	}
	for _, rec := range p.Ledger.All() {
		if end := sim.ToSeconds(rec.EndTime); end > res.CompletionTime {
			res.CompletionTime = end
		}
	}
	for _, prov := range p.Clouds {
		res.CloudSpend += prov.TotalSpend
		res.SpotSpend += prov.SpotSpend
	}
	return res
}
