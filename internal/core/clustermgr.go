package core

import (
	"fmt"

	"meryn/internal/cloud"
	"meryn/internal/framework"
	"meryn/internal/framework/batch"
	"meryn/internal/framework/mapreduce"
	"meryn/internal/framework/serverless"
	"meryn/internal/framework/service"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/sla"
	"meryn/internal/stats"
	"meryn/internal/vmm"
	"meryn/internal/workload"
)

// nodeInfo is the Cluster Manager's view of one attached node.
type nodeInfo struct {
	cloud    bool
	rate     float64 // provider-side cost, units per VM-second
	provider *cloud.Provider
	instID   string // cloud lease ID ("" for private)
}

// appState tracks one application through its life in a VC.
type appState struct {
	app      workload.App
	contract *sla.Contract
	rec      *metrics.AppRecord
	job      *framework.Job

	// Current execution segment (between OnStart and OnSuspend/OnFinish).
	// Node kinds and cost rates are recorded at segment open, so closing
	// never re-resolves nodes that may have been detached mid-segment
	// (crash, idle-cloud GC, VM transfer) — re-resolving used to skip
	// their gauge release and permanently inflate the usage series.
	segStart    sim.Time
	segOpen     bool
	segCloudN   int     // cloud nodes in the segment
	segPrivateN int     // private nodes in the segment
	segRate     float64 // summed cost rate (units per second) of the nodes

	// loan is non-nil when the app runs on VMs borrowed under a
	// suspension-backed loan that must be returned at completion.
	loan *loan

	// lastReplicas mirrors the framework's current replica count for
	// service applications (maintained through OnStart/OnScale), so
	// avail bookkeeping and suspension accounting see elastic growth
	// and shrink. Always 0 for batch/mapreduce applications.
	lastReplicas int

	// revocations counts cloud capacity losses (market revocations of
	// attached nodes and of still-configuring leases, and cloud VM
	// crashes) this application has absorbed; past the VC's
	// SpotPolicy.MaxRevocations, further capacity is leased on-demand
	// instead of on the spot market. fellBack limits the forced
	// fallback counter to one count per application.
	revocations int
	fellBack    bool

	controller *AppController

	// live is the application's index in its VC's live set while it is
	// accepted and unsettled, and -1 once it has settled: its record
	// froze at its finish, and a later job event for it panics.
	live int
}

// liveApp is one entry of a VC's live set. cost is the application's
// ledger cost at the previous audit barrier, the base of the auditor's
// check that a cost never shrinks.
type liveApp struct {
	st   *appState
	cost float64
}

// loan records a suspension-backed VM loan between two VCs (paper §4.2.2:
// "it expects the requester VC to give back the VMs before the end of
// the requested duration").
type loan struct {
	lender   *ClusterManager
	borrower *ClusterManager
	n        int
	victimID string
}

// victim is a suspended application awaiting enough free VMs to resume.
type victim struct {
	appID string
	vms   int
}

// ClusterManager manages one elastic virtual cluster: its framework, its
// share of private VMs, leased cloud VMs, SLA contracts and the resource
// selection protocol (generic part of paper §3.2).
type ClusterManager struct {
	name string
	p    *Platform
	cfg  VCConfig
	fw   framework.Framework
	ad   Adapter

	// latRN holds one RNG stream per pipeline-latency kind, so each draw
	// is a function of (VC, kind, how many draws of that kind came
	// before). Merging the streams would reorder every draw and move
	// every recorded digest and experiment output.
	latRN [numLatKinds]*sim.RNG

	// avail counts attached nodes not committed to any application —
	// the CM's admission-control view of "available VMs" in Algorithms
	// 1 and 2.
	avail int
	nodes map[string]*nodeInfo
	apps  map[string]*appState

	// live holds the accepted, unsettled applications: acceptContract
	// appends and onJobFinish swap-removes. An audit walks this set, not
	// every application the VC has held.
	live []liveApp

	pending  []*appState // apps waiting for any placement option
	victims  []victim    // suspended apps awaiting resume, FIFO
	owedLoan []*loan     // loans this CM owes (as borrower), pending return

	// segAccum/segVisit accumulate a segment's node kinds and rates
	// during VisitJobNodes; the visitor is bound once so opening a
	// segment allocates nothing.
	segAccum struct {
		cloudN, privateN int
		rate             float64
	}
	segVisit func(id string) bool

	// OwnedPrivate counts private VMs currently attached (for reports).
	OwnedPrivate int
}

// newClusterManager builds a CM and its framework instance.
func newClusterManager(p *Platform, cfg VCConfig) (*ClusterManager, error) {
	cm := &ClusterManager{
		name:  cfg.Name,
		p:     p,
		cfg:   cfg,
		nodes: make(map[string]*nodeInfo),
		apps:  make(map[string]*appState),
	}
	for k := latKind(0); k < numLatKinds; k++ {
		cm.latRN[k] = sim.NewRNG(p.cfg.Seed, "core/cm/"+cfg.Name+"/lat/"+latNames[k])
	}
	events := framework.Events{
		OnStart:   cm.onJobStart,
		OnSuspend: cm.onJobSuspend,
		OnFinish:  cm.onJobFinish,
		OnRequeue: cm.onJobRequeue,
		OnScale:   cm.onJobScale,
	}
	cm.segVisit = func(id string) bool {
		if info, ok := cm.nodes[id]; ok {
			cm.segAccum.rate += info.rate
			if info.cloud {
				cm.segAccum.cloudN++
			} else {
				cm.segAccum.privateN++
			}
		}
		return true
	}
	switch cfg.Type {
	case workload.TypeBatch:
		cm.fw = batch.New(p.Eng, batch.Config{
			Name: cfg.Name, Image: cfg.Name + ".img", Events: events, Backfill: cfg.Backfill,
		})
		cm.ad = &BatchAdapter{
			ConservativeSpeed: p.cfg.ConservativeSpeed,
			Processing:        sim.Seconds(p.cfg.ProcessingEstimate),
			VMPrice:           p.cfg.UserVMPrice,
			PenaltyN:          p.cfg.PenaltyN,
			MaxPenaltyFrac:    p.cfg.MaxPenaltyFrac,
			ScaleOutLimit:     p.cfg.SLAScaleOutLimit,
		}
	case workload.TypeMapReduce:
		slots := cfg.SlotsPerNode
		if slots <= 0 {
			slots = 2
		}
		cm.fw = mapreduce.New(p.Eng, mapreduce.Config{
			Name: cfg.Name, Image: cfg.Name + ".img", SlotsPerNode: slots, Events: events,
		})
		cm.ad = &MapReduceAdapter{
			ConservativeSpeed: p.cfg.ConservativeSpeed,
			Processing:        sim.Seconds(p.cfg.ProcessingEstimate),
			VMPrice:           p.cfg.UserVMPrice,
			PenaltyN:          p.cfg.PenaltyN,
			MaxPenaltyFrac:    p.cfg.MaxPenaltyFrac,
			SlotsPerNode:      slots,
			ScaleOutLimit:     p.cfg.SLAScaleOutLimit,
		}
	case workload.TypeService, workload.TypeServerless:
		fcfg := framework.FleetConfig{
			Name: cfg.Name, Image: cfg.Name + ".img", Tick: p.cfg.ServiceTick, Events: events,
		}
		ad := ServiceAdapter{
			ConservativeSpeed: p.cfg.ConservativeSpeed,
			Processing:        sim.Seconds(p.cfg.ProcessingEstimate),
			VMPrice:           p.cfg.UserVMPrice,
			PenaltyN:          p.cfg.PenaltyN,
			MaxPenaltyFrac:    p.cfg.MaxPenaltyFrac,
			ScaleOutLimit:     p.cfg.SLAScaleOutLimit,
			Availability:      p.cfg.ServiceAvailability,
			Interval:          p.cfg.ServiceTick,
		}
		if cfg.Type == workload.TypeService {
			cm.fw, cm.ad = service.New(p.Eng, fcfg), &ad
		} else {
			cm.fw, cm.ad = serverless.New(p.Eng, fcfg), &ServerlessAdapter{ad}
		}
	default:
		return nil, fmt.Errorf("core: unsupported VC type %q", cfg.Type)
	}
	return cm, nil
}

// Name returns the VC name.
func (cm *ClusterManager) Name() string { return cm.name }

// Framework exposes the VC's framework (tests and reports).
func (cm *ClusterManager) Framework() framework.Framework { return cm.fw }

// Image is the VC's slave disk image.
func (cm *ClusterManager) Image() string { return cm.fw.Image() }

// Avail returns the CM's count of uncommitted VMs.
func (cm *ClusterManager) Avail() int { return cm.avail }

// peers returns the other Cluster Managers in deterministic order.
func (cm *ClusterManager) peers() []*ClusterManager {
	var out []*ClusterManager
	for _, name := range cm.p.cmOrder {
		if name != cm.name {
			out = append(out, cm.p.cms[name])
		}
	}
	return out
}

// attachPrivate joins a private VM to the framework. It reports false
// without attaching when the VM is no longer running: every delayed
// attach (crash replacement, transfer receive, loan return) races its
// Configure window against crash injection, and the crash handler
// cannot route a VM that is not attached yet — unguarded, the dead VM
// would join the framework and "execute" work. The delayed callers
// request a refused VM again through replacePrivate.
func (cm *ClusterManager) attachPrivate(id string, speed float64) bool {
	if vm, err := cm.p.VMM.Get(id); err != nil || vm.State != vmm.StateRunning {
		return false
	}
	cm.nodes[id] = &nodeInfo{rate: cm.p.cfg.PrivateVMCost}
	cm.indexNode(id, true)
	cm.avail++
	cm.OwnedPrivate++
	cm.fw.AddNode(framework.Node{ID: id, SpeedFactor: speed})
	return true
}

// attachCloud joins a leased cloud instance to the framework.
func (cm *ClusterManager) attachCloud(inst *cloud.Instance, p *cloud.Provider) {
	cm.nodes[inst.ID] = &nodeInfo{cloud: true, rate: inst.PriceAtLaunch, provider: p, instID: inst.ID}
	cm.indexNode(inst.ID, true)
	cm.avail++
	cm.fw.AddNode(framework.Node{ID: inst.ID, SpeedFactor: inst.SpeedFactor, Cloud: true})
}

// detachFreeNodes removes up to n idle nodes of the requested kind
// (cloud or private) from the framework and returns their IDs with the
// detached bookkeeping info. Callers adjust avail. The framework's
// kind-segregated free index makes the selection O(picked) — no full
// free-list allocation, no per-node kind lookups.
func (cm *ClusterManager) detachFreeNodes(n int, wantCloud bool) ([]string, []*nodeInfo) {
	if n <= 0 || cm.fw.FreeNodeCount(wantCloud) == 0 {
		return nil, nil
	}
	var picked []string
	cm.fw.VisitFreeNodes(wantCloud, func(id string) bool {
		picked = append(picked, id)
		return len(picked) < n
	})
	infos := make([]*nodeInfo, 0, len(picked))
	for _, id := range picked {
		if err := cm.fw.DisableNode(id); err != nil {
			panic(fmt.Sprintf("core: disabling free node %s: %v", id, err))
		}
		if err := cm.fw.RemoveNode(id); err != nil {
			panic(fmt.Sprintf("core: removing free node %s: %v", id, err))
		}
		info := cm.nodes[id]
		if !info.cloud {
			cm.OwnedPrivate--
		}
		infos = append(infos, info)
		delete(cm.nodes, id)
		cm.indexNode(id, false)
	}
	return picked, infos
}

// freePrivateCount counts idle private nodes (candidates for lending or
// loan return).
func (cm *ClusterManager) freePrivateCount() int {
	return cm.fw.FreeNodeCount(false)
}

// BoostWithCloud leases n cloud VMs (spot when the VC's policy says so)
// and adds them to the VC as uncommitted extra capacity — the scale-out
// action used by enforcement policies (paper §3.3 leaves SLA-violation
// handling open). The idle-cloud garbage collector reclaims the VMs
// once the pressure passes.
func (cm *ClusterManager) BoostWithCloud(n int) {
	if n <= 0 {
		return
	}
	dur := sim.Seconds(cm.p.cfg.ProcessingEstimate)
	p, typeName, _ := cm.cheapestCloud(n, dur, nil)
	if p == nil {
		return
	}
	cm.leaseVia(p, typeName, n, dur, cm.spotAllowed(nil),
		func(p *cloud.Provider, live []*cloud.Instance, lost int) {
			for _, inst := range live {
				cm.attachCloud(inst, p)
			}
			cm.retryPending()
		},
		func() {}) // boosts are best-effort; sustained pressure re-fires the enforcer
}

// handleSubmission is the entry point after the Client Manager transfer
// (paper §3.3): open the SLA negotiation, then — depending on the
// submission mode — park it for the session's interactive caller or
// resolve it in place with the user strategy, and select resources.
func (cm *ClusterManager) handleSubmission(app workload.App) {
	st := &appState{app: app, rec: cm.p.Ledger.Get(app.ID)}
	st.rec.VC = cm.name
	neg := cm.p.sessionNeg(app.ID)
	if err := cm.ad.Validate(app); err != nil {
		cm.rejectSubmission(app.ID, neg, err)
		return
	}
	m := sla.NewNegotiation(app.ID, cm.ad.SLAProvider(app))
	if neg != nil && neg.interactive {
		// Interactive open-platform path: the proposal set waits for the
		// session caller's Accept/Counter/Reject.
		neg.offersReady(cm, st, m)
		return
	}
	u := cm.p.cfg.UserStrategy(app)
	if neg != nil && neg.user != nil {
		u = neg.user
	}
	contract, err := sla.Drive(m, u)
	if err != nil {
		cm.rejectSubmission(app.ID, neg, err)
		return
	}
	cm.acceptContract(st, contract)
}

// rejectSubmission settles a submission that will not run (validation
// failure or failed negotiation).
func (cm *ClusterManager) rejectSubmission(id string, neg *Negotiation, err error) {
	cm.p.Counters.Rejections.Inc()
	cm.p.appSettled(id, 0)
	if neg != nil {
		neg.noteRejected(err)
	}
}

// acceptContract finalizes an agreed contract: accounting fields, app
// registration, and the SLA-agreement/upload latency before resource
// selection. Both negotiation paths (strategy-driven and interactive
// Accept) converge here.
func (cm *ClusterManager) acceptContract(st *appState, contract *sla.Contract) {
	st.contract = contract
	st.rec.NumVMs = contract.NumVMs
	st.rec.Deadline = contract.AbsoluteDeadline(st.rec.SubmitTime)
	st.rec.Price = contract.Price
	cm.apps[st.app.ID] = st
	st.live = len(cm.live)
	cm.live = append(cm.live, liveApp{st: st})
	if neg := cm.p.sessionNeg(st.app.ID); neg != nil {
		neg.noteAgreed(cm, st, contract)
	}
	// SLA agreement + executable/input upload latency, then selection.
	cm.p.Eng.Schedule(cm.lat(latNegotiate), func() {
		cm.selectResources(st)
	})
}

// latKind names one Meryn pipeline latency (see Config.Latencies); each
// (CM, kind) pair samples from its own RNG stream.
type latKind int

const (
	latClientTransfer latKind = iota
	latNegotiate
	latDispatch
	latBidRound
	latConfigure
	latCloudConfigure
	latSuspendLocal
	latSuspendRemote
	numLatKinds
)

var latNames = [numLatKinds]string{
	"client-transfer", "negotiate", "dispatch", "bid-round",
	"configure", "cloud-configure", "suspend-local", "suspend-remote",
}

// latDist resolves a latency kind to its configured distribution.
func (cm *ClusterManager) latDist(k latKind) stats.Dist {
	l := &cm.p.cfg.Latencies
	switch k {
	case latClientTransfer:
		return l.ClientTransfer
	case latNegotiate:
		return l.Negotiate
	case latDispatch:
		return l.Dispatch
	case latBidRound:
		return l.BidRound
	case latConfigure:
		return l.Configure
	case latCloudConfigure:
		return l.CloudConfigure
	case latSuspendLocal:
		return l.SuspendLocal
	case latSuspendRemote:
		return l.SuspendRemote
	}
	panic(fmt.Sprintf("core: unknown latency kind %d", k))
}

// lat samples a pipeline latency into virtual time, from the (CM, kind)
// stream.
func (cm *ClusterManager) lat(k latKind) sim.Time {
	return sim.Seconds(cm.latDist(k).Sample(cm.latRN[k]))
}

// gaugeAdd moves the cloud or private usage gauge by delta.
func (cm *ClusterManager) gaugeAdd(isCloud bool, at sim.Time, delta int) {
	if delta == 0 {
		return
	}
	if isCloud {
		cm.p.CloudUsed.Add(at, delta)
	} else {
		cm.p.PrivateUsed.Add(at, delta)
	}
}

// indexNode records or clears this CM's ownership of a node in the
// platform-wide node index (the crash/revocation router).
func (cm *ClusterManager) indexNode(id string, add bool) {
	if add {
		cm.p.nodeCM[id] = cm
	} else {
		delete(cm.p.nodeCM, id)
	}
}

// commit reserves n uncommitted VMs for the app and dispatches it.
// Local placements require avail >= n (their callers checked it in the
// same event); vc/cloud placements bring their own freshly attached
// nodes, and avail may legitimately be lower — even negative — when a
// node crash left commitments outstanding against a shrunken pool.
func (cm *ClusterManager) commit(st *appState, placement metrics.Placement) {
	n := st.contract.NumVMs
	if cm.cfg.Type == workload.TypeServerless {
		// A function starts at zero instances and books nothing at
		// commit: the contracted count is a burst ceiling, not a
		// reservation, and every instance it later warms flows through
		// onJobScale against avail. That zero-booking is what lets a VC
		// admit far more functions than it holds VMs.
		n = 0
	}
	if placement == metrics.PlacementLocal && cm.avail < n {
		panic(fmt.Sprintf("core: %s committing %d local VMs with avail=%d", cm.name, n, cm.avail))
	}
	cm.avail -= n
	st.rec.Placement = placement
	cm.p.Eng.Schedule(cm.lat(latDispatch), func() {
		cm.dispatch(st)
	})
}

// dispatch translates and submits the job, and spawns the Application
// Controller (paper §3.3).
func (cm *ClusterManager) dispatch(st *appState) {
	st.job = cm.ad.Translate(st.app, st.contract)
	if err := cm.fw.Submit(st.job); err != nil {
		panic(fmt.Sprintf("core: framework rejected translated job %s: %v", st.app.ID, err))
	}
	st.controller = newAppController(cm, st)
}

// onJobStart opens a cost/usage segment for the app: node kinds and
// cost rates are captured now, and each usage gauge moves once with the
// whole delta instead of once per node.
func (cm *ClusterManager) onJobStart(j *framework.Job) {
	st := cm.jobApp("start", j)
	if st == nil {
		return
	}
	st.rec.StartTime = j.StartedAt // framework sets this once, at first start
	st.lastReplicas = j.Replicas   // 0 except for service jobs
	if j.Replicas > st.rec.PeakReplicas {
		st.rec.PeakReplicas = j.Replicas
	}
	cm.openSegment(st, j)
	cm.p.sessionEmit(j.ID, "started", "")
	if st.controller != nil {
		st.controller.jobStarted()
	}
}

// openSegment captures the job's current node kinds and cost rates and
// moves the usage gauges once with the whole delta.
func (cm *ClusterManager) openSegment(st *appState, j *framework.Job) {
	now := cm.p.Eng.Now()
	st.segStart = now
	// Rates accumulate in the framework's deterministic visit order, so
	// the float sum reproduces run to run.
	cm.segAccum.cloudN, cm.segAccum.privateN, cm.segAccum.rate = 0, 0, 0
	_ = cm.fw.VisitJobNodes(j.ID, cm.segVisit)
	st.segCloudN, st.segPrivateN, st.segRate = cm.segAccum.cloudN, cm.segAccum.privateN, cm.segAccum.rate
	st.segOpen = true
	cm.gaugeAdd(true, now, st.segCloudN)
	cm.gaugeAdd(false, now, st.segPrivateN)
}

// onJobScale reacts to a running job's node set changing in place
// (service replica growth, shrink, or surviving a node crash): the cost
// segment closes at the old rate and reopens at the new node set, and
// avail absorbs the footprint delta — replicas beyond the committed
// count consume uncommitted capacity, shrinking returns it.
func (cm *ClusterManager) onJobScale(j *framework.Job) {
	st := cm.jobApp("scale", j)
	if st == nil {
		return
	}
	cm.closeSegment(st)
	cm.openSegment(st, j)
	cm.avail -= j.Replicas - st.lastReplicas
	st.lastReplicas = j.Replicas
	if j.Replicas > st.rec.PeakReplicas {
		st.rec.PeakReplicas = j.Replicas
	}
}

// closeSegment accrues cost and releases usage gauges for the app's
// current execution segment, using the kinds and rates recorded at open
// time — nodes detached mid-segment still release their gauge counts
// (and still bill: the provider paid for them while the segment ran).
func (cm *ClusterManager) closeSegment(st *appState) {
	if !st.segOpen {
		return
	}
	now := cm.p.Eng.Now()
	dur := sim.ToSeconds(now - st.segStart)
	st.rec.Cost += dur * st.segRate
	cm.gaugeAdd(true, now, -st.segCloudN)
	cm.gaugeAdd(false, now, -st.segPrivateN)
	st.segOpen = false
	st.segCloudN, st.segPrivateN, st.segRate = 0, 0, 0
}

// onJobSuspend closes the segment of a suspended victim.
func (cm *ClusterManager) onJobSuspend(j *framework.Job) {
	st := cm.jobApp("suspend", j)
	if st == nil {
		return
	}
	st.rec.Suspended = true
	cm.closeSegment(st)
	st.lastReplicas = 0 // a suspended service holds no replicas
	cm.p.sessionEmit(j.ID, "suspended", "")
	if st.controller != nil {
		st.controller.jobInterrupted()
	}
}

// onJobRequeue closes the segment of a job that lost its nodes to a
// crash; the provider still pays for the consumed VM time. A requeued
// service re-books its contracted footprint: it lost everything and
// will restart at the contracted replica count from the free pool. (A
// function never requeues: losing its last instance leaves it cold.)
func (cm *ClusterManager) onJobRequeue(j *framework.Job) {
	st := cm.jobApp("requeue", j)
	if st == nil {
		return
	}
	cm.closeSegment(st)
	if st.controller != nil {
		st.controller.jobInterrupted()
	}
	if st.contract.SLO != nil {
		cm.avail -= st.contract.NumVMs - st.lastReplicas
		st.lastReplicas = st.contract.NumVMs
	}
}

// handleNodeCrash reacts to an attached node dying: detach it, let the
// framework requeue affected work, and heal. A private VM is replaced
// from the private pool (the crash freed hosting capacity); a cloud
// lease instead settles with the provider and re-leases through the
// path shared with spot revocation — it used to be treated as private
// here, which leaked the lease (provider active count and usage gauge
// inflated forever, the charge never settled) and corrupted the
// OwnedPrivate count.
func (cm *ClusterManager) handleNodeCrash(id string) {
	info := cm.nodes[id]
	if info == nil {
		// The node index routes only attached nodes here; a direct call
		// with a stale ID is a no-op.
		return
	}
	cm.p.Counters.NodeCrashes.Inc()
	if info.cloud {
		cm.handleCloudLoss(id, true)
		return
	}
	if err := cm.fw.FailNode(id); err != nil {
		panic(fmt.Sprintf("core: failing crashed node %s: %v", id, err))
	}
	delete(cm.nodes, id)
	cm.indexNode(id, false)
	cm.OwnedPrivate--
	cm.avail-- // attached count dropped; commitments stand
	cm.replacePrivate()
}

// replacePrivate boots one private VM in place of a crashed one. The
// replacement can itself crash during its configure delay, before the
// node index routes crashes to this CM; attachPrivate then refuses it
// and the slot is requested again, so a crash storm cannot leave the VC
// permanently short of nodes while applications wait for them.
func (cm *ClusterManager) replacePrivate() {
	cm.p.RM.StartPrivate(cm.Image(), 1, func(vms []*vmm.VM, err error) {
		if err != nil {
			return // capacity raced away; recover on future finishes
		}
		cm.p.Eng.Schedule(cm.lat(latConfigure), func() {
			for _, vm := range vms {
				if cm.attachPrivate(vm.ID, vm.SpeedFactor) {
					cm.p.Counters.Replacements.Inc()
				} else {
					cm.replacePrivate()
				}
			}
			cm.tryResumeVictims()
			cm.retryPending()
		})
	})
}

// handleCloudRevocation reacts to the provider preempting a spot lease
// this CM holds. The provider already settled the partial charge and
// released the lease; the CM's job is requeueing the lost work and
// re-running resource selection for replacement capacity.
func (cm *ClusterManager) handleCloudRevocation(id string) {
	if cm.nodes[id] == nil {
		return // stale ID (see handleNodeCrash)
	}
	cm.p.Counters.SpotRevocations.Inc()
	cm.handleCloudLoss(id, false)
}

// handleCloudLoss detaches a cloud node lost involuntarily — a market
// revocation (already settled provider-side) or a crash (settleLease:
// the lease is still active and must be terminated so the charge
// settles and quota frees). Work on the node requeues through the
// framework's FailNode machinery; when an application was hit, one
// replacement instance is re-leased, falling back to on-demand once the
// application exhausts the VC's spot revocation budget.
func (cm *ClusterManager) handleCloudLoss(id string, settleLease bool) {
	info := cm.nodes[id]
	if info == nil {
		return
	}
	hit := cm.appsOnNode(id)
	if err := cm.fw.FailNode(id); err != nil {
		panic(fmt.Sprintf("core: failing cloud node %s: %v", id, err))
	}
	delete(cm.nodes, id)
	cm.indexNode(id, false)
	cm.avail-- // attached count dropped; commitments stand
	if settleLease && info.provider != nil {
		cm.p.RM.Release(info.provider, info.instID)
	}
	if len(hit) == 0 {
		return // the node was idle; nothing to re-run
	}
	for _, st := range hit {
		st.revocations++
		st.rec.Revocations++
	}
	// One node lost, one replacement; its spot/on-demand choice follows
	// the most-revoked affected application (conservative fallback).
	worst := hit[0]
	for _, st := range hit[1:] {
		if st.revocations > worst.revocations {
			worst = st
		}
	}
	cm.leaseReplacement(worst)
}

// appsOnNode returns the applications occupying a node, in running
// order — the work a revocation or crash is about to hit. Frameworks
// expose the inverse node→jobs index (NodeJobVisitor), so the lookup
// no longer walks every running job's node set per crash.
func (cm *ClusterManager) appsOnNode(id string) []*appState {
	var out []*appState
	if v, ok := cm.fw.(framework.NodeJobVisitor); ok {
		v.VisitNodeJobs(id, func(jobID string) bool {
			if st := cm.apps[jobID]; st != nil {
				out = append(out, st)
			}
			return true
		})
		return out
	}
	for _, j := range cm.fw.Running() {
		found := false
		_ = cm.fw.VisitJobNodes(j.ID, func(nid string) bool {
			if nid == id {
				found = true
				return false
			}
			return true
		})
		if found {
			if st := cm.apps[j.ID]; st != nil {
				out = append(out, st)
			}
		}
	}
	return out
}

// onJobFinish settles the application: accounting, SLA penalty, loan
// return, victim resume, pending retries and idle cloud GC.
func (cm *ClusterManager) onJobFinish(j *framework.Job) {
	st := cm.jobApp("finish", j)
	if st == nil {
		return
	}
	now := cm.p.Eng.Now()
	cm.closeSegment(st)
	st.rec.EndTime = now
	if st.contract.SLO != nil {
		cm.settleSLO(st, j)
	} else if delay := st.rec.Delay(); delay > 0 {
		st.rec.Penalty = st.contract.PenaltyFor(delay)
	}
	if st.controller != nil {
		st.controller.stop()
	}
	cm.avail += st.contract.NumVMs
	if st.contract.SLO != nil {
		// The framework released the *current* replica set, not the
		// contracted one; square avail with the elastic footprint.
		cm.avail += st.lastReplicas - st.contract.NumVMs
		st.lastReplicas = 0
	}
	cm.p.sessionEmit(j.ID, "completed", "")
	cm.settle(st)

	// Release idle cloud VMs first so they never masquerade as free
	// private capacity (paper §3.5: stop cloud VMs when done).
	cm.gcIdleCloud()
	// Return suspension-backed loans (paper §4.2.2).
	if st.loan != nil {
		cm.owedLoan = append(cm.owedLoan, st.loan)
		st.loan = nil
	}
	cm.processLoanReturns()
	// Resume suspended victims now that capacity freed up.
	cm.tryResumeVictims()
	cm.retryPending()
}

// jobApp finds the application a framework job event is for (nil for a
// job the VC does not track). The five job callbacks are the only
// writers of the segment and ledger fields the auditor checks, so an
// event for a settled application, whose record froze at its finish,
// panics.
func (cm *ClusterManager) jobApp(event string, j *framework.Job) *appState {
	st := cm.apps[j.ID]
	if st != nil && st.live < 0 {
		panic(fmt.Sprintf("core: %s: %s event for settled application %s", cm.name, event, j.ID))
	}
	return st
}

// settle freezes a finished application: it leaves the live set, its
// record gets its last audit check, and it counts as settled.
func (cm *ClusterManager) settle(st *appState) {
	i, last := st.live, len(cm.live)-1
	cost := cm.live[i].cost
	cm.live[i] = cm.live[last]
	cm.live[i].st.live = i
	cm.live[last] = liveApp{}
	cm.live = cm.live[:last]
	st.live = -1
	cm.p.appSettled(st.app.ID, cost)
}

// settleSLO closes a service contract: final burn accounting from the
// framework and the accumulated-burn penalty (Eq. 3 generalized) in
// place of the one-shot delay penalty.
func (cm *ClusterManager) settleSLO(st *appState, j *framework.Job) {
	st.rec.SLOTarget = j.TargetP95
	if svc := cm.serviceFW(); svc != nil {
		if stats, err := svc.ServiceStats(j.ID); err == nil {
			st.rec.SLOIntervals, st.rec.SLOBurned = stats.Intervals, stats.Burned
			if stats.PeakReplicas > st.rec.PeakReplicas {
				st.rec.PeakReplicas = stats.PeakReplicas
			}
		}
	}
	if fw := cm.serverlessFW(); fw != nil {
		if stats, err := fw.FunctionStats(j.ID); err == nil {
			cm.syncFunctionStats(st.rec, stats)
			// Metered spend, bounded by the contracted cost cap — the
			// platform throttles instead of surprise-billing past it.
			if metered := stats.Served * st.contract.PerInvocation; metered > 0 {
				if st.contract.CostCap > 0 && metered > st.contract.CostCap {
					metered = st.contract.CostCap
				}
				st.rec.Metered = metered
			}
		}
	}
	st.rec.Penalty = st.contract.SLOPenalty(st.rec.SLOIntervals, st.rec.SLOBurned)
}

// syncFunctionStats folds a function's framework accounting into its
// ledger record and bumps the platform counters by the deltas since the
// last sync (the record carries the running totals, so the periodic
// controller sync and the final settle never double count).
func (cm *ClusterManager) syncFunctionStats(rec *metrics.AppRecord, stats serverless.Stats) {
	if d := stats.ColdStarts - rec.ColdStarts; d > 0 {
		cm.p.Counters.ColdStarts.AddN(int64(d))
	}
	if d := stats.Activations - rec.Activations; d > 0 {
		cm.p.Counters.Activations.AddN(int64(d))
	}
	if d := stats.ZeroScales - rec.ZeroScales; d > 0 {
		cm.p.Counters.ZeroScales.AddN(int64(d))
	}
	rec.SLOIntervals, rec.SLOBurned = stats.Intervals, stats.Burned
	if stats.PeakReplicas > rec.PeakReplicas {
		rec.PeakReplicas = stats.PeakReplicas
	}
	rec.ColdStarts = stats.ColdStarts
	rec.ColdStartDelayS = stats.ColdStartDelayS
	rec.Activations = stats.Activations
	rec.ZeroScales = stats.ZeroScales
	rec.Served = stats.Served
}

// gcIdleCloud releases every attached cloud node that is idle, in one
// indexed pass (it used to detach one node per full free-list rescan).
func (cm *ClusterManager) gcIdleCloud() {
	n := cm.fw.FreeNodeCount(true)
	if n == 0 {
		return
	}
	picked, infos := cm.detachFreeNodes(n, true)
	cm.avail -= len(picked)
	for i := range picked {
		if infos[i].provider != nil {
			cm.p.RM.Release(infos[i].provider, infos[i].instID)
		}
	}
}

// tryResumeVictims resumes suspended applications FIFO while capacity
// allows (paper §3.4: the destination VC gives VMs back; the source then
// resumes its suspended application).
func (cm *ClusterManager) tryResumeVictims() {
	for len(cm.victims) > 0 {
		v := cm.victims[0]
		vs, ok := cm.apps[v.appID]
		if !ok || vs.job == nil || vs.job.State != framework.JobSuspended {
			cm.victims = cm.victims[1:]
			continue
		}
		if cm.avail < v.vms {
			return
		}
		cm.victims = cm.victims[1:]
		cm.avail -= v.vms
		if err := cm.fw.Resume(v.appID); err != nil {
			panic(fmt.Sprintf("core: resuming %s: %v", v.appID, err))
		}
		cm.p.Counters.Resumes.Inc()
	}
}

// retryPending re-runs resource selection for queued applications until
// one fails to place.
func (cm *ClusterManager) retryPending() {
	for len(cm.pending) > 0 {
		st := cm.pending[0]
		cm.pending = cm.pending[1:]
		before := len(cm.pending)
		cm.p.Counters.PendingRetries.Inc()
		cm.selectResources(st)
		if len(cm.pending) > before {
			return // it re-queued itself; wait for the next event
		}
	}
}
