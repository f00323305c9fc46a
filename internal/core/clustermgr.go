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

// nodeInfo is the platform's record of one attached node (a private VM
// or a cloud lease): the Cluster Manager holding it, its slot in that
// CM's attached slice, the framework's record of it, its substrate
// handle and its cost.
type nodeInfo struct {
	id       string // the VM ID, or the cloud lease ID
	cm       *ClusterManager
	slot     int // index in cm.attached
	cloud    bool
	ref      framework.NodeRef // what the framework's AddNode returned
	rate     float64           // provider-side cost, units per VM-second
	vm       *vmm.VM           // the private VM (nil for cloud)
	provider *cloud.Provider   // the cloud node's provider (nil for private)
}

// appState tracks one application through its life in a VC. It is
// resolved once, when the submission reaches its Cluster Manager, and
// every later step reaches it by pointer: the framework job carries it
// as its Owner, a bid and a resume queue entry name it directly.
type appState struct {
	app      workload.App
	cm       *ClusterManager
	neg      *Negotiation // the session's handle on the submission
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
	st  *appState
	vms int
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

	// accepted counts the applications whose contract this VC agreed.
	accepted int

	// attached is the CM's lease table: its attached nodes, each at the
	// slot it records. attach appends and detach swap-removes, so an
	// audit walks a dense slice; the platform's node index finds a node
	// by ID.
	attached []*nodeInfo

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
		name:     cfg.Name,
		p:        p,
		cfg:      cfg,
		attached: make([]*nodeInfo, 0, cfg.InitialVMs),
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
		if info := cm.node(id); info != nil {
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
		cm.fw = batch.New(p.Eng, batch.Config{Name: cfg.Name, Events: events})
		cm.ad = &BatchAdapter{cfg: &p.cfg}
	case workload.TypeMapReduce:
		mr := mapreduce.New(p.Eng, mapreduce.Config{
			Name: cfg.Name, SlotsPerNode: cfg.SlotsPerNode, Events: events,
		})
		cm.fw = mr
		cm.ad = &MapReduceAdapter{cfg: &p.cfg, slots: mr.SlotsPerNode()}
	case workload.TypeService, workload.TypeServerless:
		fcfg := framework.FleetConfig{Name: cfg.Name, Tick: serviceTick, Events: events}
		ad := ServiceAdapter{cfg: &p.cfg}
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
	vm, err := cm.p.VMM.Get(id)
	if err != nil || vm.State != vmm.StateRunning {
		return false
	}
	info := &nodeInfo{id: id, rate: privateVMCost, vm: vm}
	cm.attach(info)
	cm.avail++
	cm.OwnedPrivate++
	info.ref = cm.fw.AddNode(framework.Node{ID: id, SpeedFactor: speed})
	return true
}

// attachCloud joins a leased cloud instance to the framework.
func (cm *ClusterManager) attachCloud(inst *cloud.Instance, p *cloud.Provider) {
	info := &nodeInfo{id: inst.ID, cloud: true, rate: inst.PriceAtLaunch, provider: p}
	cm.attach(info)
	cm.avail++
	info.ref = cm.fw.AddNode(framework.Node{ID: inst.ID, SpeedFactor: inst.SpeedFactor, Cloud: true})
}

// detachFreeNodes removes up to n idle nodes of the requested kind
// (cloud or private) from the framework and returns their IDs with the
// detached bookkeeping info. Callers adjust avail. The framework's
// kind-segregated free index makes the selection O(picked) — no full
// free-list allocation, no per-node kind lookups. Every picked node is
// free and nothing runs between the visit and the removals, so
// RemoveNode, which refuses a node hosting work, cannot fail here.
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
		if err := cm.fw.RemoveNode(id); err != nil {
			panic(fmt.Sprintf("core: removing free node %s: %v", id, err))
		}
		info := cm.node(id)
		if !info.cloud {
			cm.OwnedPrivate--
		}
		infos = append(infos, info)
		cm.detach(info)
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
// rec is the accounting record the Client Manager opened and neg the
// session's handle; the application's state keeps both.
func (cm *ClusterManager) handleSubmission(app workload.App, rec *metrics.AppRecord, neg *Negotiation) {
	st := &appState{app: app, cm: cm, neg: neg, rec: rec}
	rec.VC = cm.name
	if err := cm.ad.Validate(app); err != nil {
		cm.rejectSubmission(st, err)
		return
	}
	m := sla.NewNegotiation(app.ID, cm.ad.SLAProvider(app))
	if neg.interactive {
		// Interactive open-platform path: the proposal set waits for the
		// session caller's Accept/Counter/Reject.
		neg.offersReady(cm, st, m)
		return
	}
	u := cm.p.cfg.UserStrategy(app)
	if neg.user != nil {
		u = neg.user
	}
	contract, err := sla.Drive(m, u)
	if err != nil {
		cm.rejectSubmission(st, err)
		return
	}
	cm.acceptContract(st, contract)
}

// rejectSubmission settles a submission that will not run (validation
// failure or failed negotiation).
func (cm *ClusterManager) rejectSubmission(st *appState, err error) {
	cm.p.Counters.Rejections.Inc()
	cm.p.appSettled(st.app.ID, st.rec, 0)
	st.neg.noteRejected(err)
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
	cm.accepted++
	st.live = len(cm.live)
	cm.live = append(cm.live, liveApp{st: st})
	st.neg.noteAgreed(cm, st, contract)
	// SLA agreement + executable/input upload latency, then selection.
	cm.p.Eng.Schedule(cm.lat(latNegotiate), func() {
		cm.selectResources(st)
	})
}

// latKind names one Meryn pipeline latency, the costs layered on top
// of the VM and cloud substrate latencies; each (CM, kind) pair samples
// from its own RNG stream.
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

// latDists is each latency kind's distribution in seconds, calibrated
// so that the end-to-end processing times reproduce paper Table 1 (see
// DESIGN.md).
var latDists = [numLatKinds]stats.Dist{
	stats.Uniform{Lo: 1, Hi: 3},   // user -> Client Manager -> Cluster Manager
	stats.Uniform{Lo: 3, Hi: 6},   // SLA negotiation + executable/data upload
	stats.Uniform{Lo: 3, Hi: 6},   // template translation + App Controller spawn + framework submit
	stats.Uniform{Lo: 1, Hi: 2},   // CM <-> CM bid collection + cloud quotes
	stats.Uniform{Lo: 9, Hi: 11},  // joining a transferred private VM to the framework
	stats.Uniform{Lo: 13, Hi: 17}, // joining a leased cloud VM (WAN) to the framework
	stats.Uniform{Lo: 3, Hi: 4},   // checkpointing a local victim application
	stats.Uniform{Lo: 15, Hi: 18}, // checkpointing a victim in another VC
}

// lat samples a pipeline latency into virtual time, from the (CM, kind)
// stream.
func (cm *ClusterManager) lat(k latKind) sim.Time {
	return sim.Seconds(latDists[k].Sample(cm.latRN[k]))
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

// attach enters a node in the platform's node index and appends it to
// this CM's lease table.
func (cm *ClusterManager) attach(info *nodeInfo) {
	info.cm, info.slot = cm, len(cm.attached)
	cm.attached = append(cm.attached, info)
	cm.p.nodes[info.id] = info
}

// detach removes a node from the node index and swap-removes it from
// this CM's lease table through its slot.
func (cm *ClusterManager) detach(info *nodeInfo) {
	i, last := info.slot, len(cm.attached)-1
	cm.attached[i] = cm.attached[last]
	cm.attached[i].slot = i
	cm.attached[last] = nil
	cm.attached = cm.attached[:last]
	delete(cm.p.nodes, info.id)
}

// node returns the attached node with this ID if this CM holds it, and
// nil otherwise.
func (cm *ClusterManager) node(id string) *nodeInfo {
	if info := cm.p.nodes[id]; info != nil && info.cm == cm {
		return info
	}
	return nil
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
// Controller (paper §3.3). The job carries the application's state as
// its Owner, which is how every job event finds it.
func (cm *ClusterManager) dispatch(st *appState) {
	st.job = cm.ad.Translate(st.app, st.contract)
	st.job.Owner = st
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
	st.neg.s.emitLocked(j.ID, "started", "")
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
	st.neg.s.emitLocked(j.ID, "suspended", "")
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

// handleNodeCrash reacts to an attached node of this CM dying: detach
// it, let the framework requeue affected work, and heal. A private VM
// is replaced from the private pool (the crash freed hosting capacity);
// a cloud lease instead settles with the provider and re-leases through
// the path shared with spot revocation — it used to be treated as
// private here, which leaked the lease (provider active count and usage
// gauge inflated forever, the charge never settled) and corrupted the
// OwnedPrivate count.
func (cm *ClusterManager) handleNodeCrash(info *nodeInfo) {
	cm.p.Counters.NodeCrashes.Inc()
	if info.cloud {
		cm.handleCloudLoss(info, true)
		return
	}
	if err := cm.fw.FailNode(info.id); err != nil {
		panic(fmt.Sprintf("core: failing crashed node %s: %v", info.id, err))
	}
	cm.detach(info)
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
func (cm *ClusterManager) handleCloudRevocation(info *nodeInfo) {
	cm.p.Counters.SpotRevocations.Inc()
	cm.handleCloudLoss(info, false)
}

// handleCloudLoss detaches a cloud node lost involuntarily — a market
// revocation (already settled provider-side) or a crash (settleLease:
// the lease is still active and must be terminated so the charge
// settles and quota frees). Work on the node requeues through the
// framework's FailNode machinery; when an application was hit, one
// replacement instance is re-leased, falling back to on-demand once the
// application exhausts the VC's spot revocation budget.
func (cm *ClusterManager) handleCloudLoss(info *nodeInfo, settleLease bool) {
	hit := cm.appsOnNode(info.id)
	if err := cm.fw.FailNode(info.id); err != nil {
		panic(fmt.Sprintf("core: failing cloud node %s: %v", info.id, err))
	}
	cm.detach(info)
	cm.avail-- // attached count dropped; commitments stand
	if settleLease && info.provider != nil {
		cm.p.RM.Release(info.provider, info.id)
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
// order — the work a revocation or crash is about to hit — through the
// framework's inverse node→jobs index. It runs only on node loss, so
// it resolves each job ID through the framework.
func (cm *ClusterManager) appsOnNode(id string) []*appState {
	var out []*appState
	cm.fw.VisitNodeJobs(id, func(jobID string) bool {
		if j, ok := cm.fw.Get(jobID); ok {
			if st := cm.owned(j); st != nil {
				out = append(out, st)
			}
		}
		return true
	})
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
	st.neg.s.emitLocked(j.ID, "completed", "")
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
// job this VC did not dispatch). The five job callbacks are the only
// writers of the segment and ledger fields the auditor checks, so an
// event for a settled application, whose record froze at its finish,
// panics.
func (cm *ClusterManager) jobApp(event string, j *framework.Job) *appState {
	st := cm.owned(j)
	if st != nil && st.live < 0 {
		panic(fmt.Sprintf("core: %s: %s event for settled application %s", cm.name, event, j.ID))
	}
	return st
}

// owned returns the application this VC dispatched as job j, or nil
// for a job without such an owner (one submitted straight to the
// framework).
func (cm *ClusterManager) owned(j *framework.Job) *appState {
	if st, ok := j.Owner.(*appState); ok && st.cm == cm {
		return st
	}
	return nil
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
	cm.p.appSettled(st.app.ID, st.rec, cost)
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
			cm.p.RM.Release(infos[i].provider, infos[i].id)
		}
	}
}

// tryResumeVictims resumes suspended applications FIFO while capacity
// allows (paper §3.4: the destination VC gives VMs back; the source then
// resumes its suspended application).
func (cm *ClusterManager) tryResumeVictims() {
	for len(cm.victims) > 0 {
		v := cm.victims[0]
		if v.st.job.State != framework.JobSuspended {
			cm.victims = cm.victims[1:]
			continue
		}
		if cm.avail < v.vms {
			return
		}
		cm.victims = cm.victims[1:]
		cm.avail -= v.vms
		if err := cm.fw.Resume(v.st.app.ID); err != nil {
			panic(fmt.Sprintf("core: resuming %s: %v", v.st.app.ID, err))
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
