package core

import (
	"fmt"
	"math"

	"meryn/internal/cloud"
	"meryn/internal/framework"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/vmm"
	"meryn/internal/workload"
)

// Bid is a Cluster Manager's answer to a bid computation request.
type Bid struct {
	OK       bool    // the VC can provide the VMs
	Cost     float64 // estimated revenue loss (0 = free VMs, or free-to-shrink service)
	VictimID string  // application to suspend or shrink ("" = VMs already free)
	Shrink   bool    // the victim yields replicas by shrinking, not by suspending

	victim *appState // the application VictimID names
}

// ReclaimBidder is the bid computation of VCs that yield resources by
// shrinking running applications instead of suspending them — the
// service framework's Algorithm-2 generalization. When a Cluster
// Manager's adapter implements it, ComputeBid and the local bid price
// replica reclamation (projected SLO-penalty loss) in place of the
// suspension bid.
type ReclaimBidder interface {
	ReclaimBid(cm *ClusterManager, n int, duration sim.Time) Bid
}

// selectResources implements paper Algorithm 1. The five options:
//
//  1. enough free local VMs        -> run on local-vms
//  2. a peer VC bids zero          -> run on vc-vms (free transfer)
//  3. the local bid is lowest      -> suspend a local app, run on local-vms
//  4. a peer VC's bid is lowest    -> suspend there, borrow, run on vc-vms
//  5. the cloud price is lowest    -> lease cloud-vms
//
// PolicyStatic short-circuits to option 1 else option 5, which is the
// paper's baseline.
func (cm *ClusterManager) selectResources(st *appState) {
	n := st.contract.NumVMs
	if cm.avail >= n {
		cm.commit(st, metrics.PlacementLocal)
		return
	}
	if cm.p.cfg.Policy == PolicyStatic {
		if len(cm.p.RM.Clouds()) == 0 {
			// No elasticity at all: queue locally without a detour
			// through the cloud path.
			cm.pending = append(cm.pending, st)
			return
		}
		cm.burstToCloud(st)
		return
	}
	// Invite all the other Cluster Managers to propose a bid, compute
	// the local bid and query cloud prices; one bid-round latency covers
	// the message exchange.
	cm.p.Counters.BidRounds.Inc()
	cm.p.Eng.Schedule(cm.lat(latBidRound), func() { cm.decideWithBids(st) })
}

// decideWithBids gathers bids and acts on the cheapest option.
func (cm *ClusterManager) decideWithBids(st *appState) {
	n := st.contract.NumVMs
	duration := st.contract.ExecEst

	// Local capacity may have freed up during the bid round.
	if cm.avail >= n {
		cm.commit(st, metrics.PlacementLocal)
		return
	}

	// Option 2: any peer with free VMs bids zero with no victim. A
	// zero-cost bid naming a victim (a service with SLO headroom) is
	// still a yield, so it competes with the local bid below instead of
	// short-circuiting.
	var (
		bestPeer    *ClusterManager
		bestPeerBid = Bid{Cost: math.Inf(1)}
	)
	for _, peer := range cm.peers() {
		bid := peer.ComputeBid(n, duration)
		if !bid.OK {
			continue
		}
		if bid.Cost == 0 && bid.VictimID == "" {
			cm.acquireFromVC(peer, st, bid)
			return
		}
		if bid.Cost < bestPeerBid.Cost {
			bestPeer, bestPeerBid = peer, bid
		}
	}

	localBid := cm.localBid(n, duration)
	cloudProvider, cloudType, cloudBid := cm.cheapestCloud(n, duration, st)

	// Tie-break order mirrors the paper's comparison order: local, then
	// VC, then cloud.
	switch {
	case localBid.OK && localBid.Cost <= bestPeerBid.Cost && localBid.Cost <= cloudBid:
		cm.yieldLocalAndRun(st, localBid)
	case bestPeer != nil && bestPeerBid.Cost <= cloudBid:
		cm.acquireFromVC(bestPeer, st, bestPeerBid)
	case cloudProvider != nil:
		cm.burstToCloudVia(st, cloudProvider, cloudType)
	default:
		// No option can host the application now; queue and retry on
		// the next capacity change.
		cm.pending = append(cm.pending, st)
	}
}

// ComputeBid implements paper Algorithm 2 generalized over frameworks:
// zero when free VMs exist, otherwise the smallest estimated yield cost
// — suspending a running application holding at least n VMs, or (for
// service VCs) shrinking a service by n replicas at the projected
// SLO-penalty loss.
func (cm *ClusterManager) ComputeBid(n int, duration sim.Time) Bid {
	if cm.avail >= n {
		return Bid{OK: true, Cost: 0}
	}
	return cm.localBid(n, duration)
}

// localBid is the cost of making a local victim yield n VMs: a peer's
// bid once it has too few free VMs, and the requesting CM's own bid
// (option 3), whose free local VMs were already ruled out.
func (cm *ClusterManager) localBid(n int, duration sim.Time) Bid {
	if cm.p.cfg.DisableSuspension {
		return Bid{}
	}
	if rb, ok := cm.ad.(ReclaimBidder); ok {
		return rb.ReclaimBid(cm, n, duration)
	}
	return cm.suspensionBid(n, duration)
}

// suspensionBid evaluates the suspension cost of every candidate victim:
// applications running on at least n VMs. Per Algorithm 2:
//
//	spent_t    = now - submit_t
//	progress_t = now - start_t
//	finish_t   = exec_est - progress_t
//	free_t     = deadline - (spent_t + finish_t)
//	cost       = min_suspension_cost [+ delay_penalty(duration - free_t)]
func (cm *ClusterManager) suspensionBid(n int, duration sim.Time) Bid {
	now := cm.p.Eng.Now()
	best := Bid{Cost: math.Inf(1)}
	for _, job := range cm.fw.Running() {
		st := cm.owned(job)
		if st == nil || st.contract.NumVMs < n {
			continue
		}
		spent := now - st.rec.SubmitTime
		progress := now - job.StartedAt
		finish := st.contract.ExecEst - progress
		if finish < 0 {
			finish = 0
		}
		free := st.contract.Deadline - (spent + finish)
		cost := minSuspensionCost
		if free <= duration {
			cost += st.contract.PenaltyFor(duration - free)
		}
		if cost < best.Cost {
			best = Bid{OK: true, Cost: cost, VictimID: job.ID, victim: st}
		}
	}
	if !best.OK {
		return Bid{}
	}
	return best
}

// cheapestCloud returns the provider/type minimizing the lease cost of n
// VMs for the duration (Algorithm 1's "cheapest cloud VM price") for an
// application (st nil for VC-level boosts). A VC with a spot policy
// values the market below the posted quote — the cost estimate carries
// the expected-revocation discount spotCostDiscount, extending
// Algorithm 1's comparison without touching the other bids — but only
// when the lease would actually be preemptible: the application inside
// its revocation budget and the provider's prices actually moving.
func (cm *ClusterManager) cheapestCloud(n int, duration sim.Time, st *appState) (*cloud.Provider, string, float64) {
	bestP, bestType, bestCost := cm.cheapestProvider(nil, n, duration)
	if sp := cm.cfg.Spot; sp != nil && bestP != nil && bestP.MarketPriced(bestType) &&
		(st == nil || st.revocations < sp.MaxRevocations) {
		bestCost *= spotCostDiscount
	}
	return bestP, bestType, bestCost
}

// spotAllowed decides whether a lease decision may go to the spot
// market. An application that has exhausted its VC's revocation budget
// counts one forced fallback — once, however many lease decisions and
// retries it needs on on-demand capacity afterwards.
func (cm *ClusterManager) spotAllowed(st *appState) bool {
	sp := cm.cfg.Spot
	if sp == nil {
		return false
	}
	if st != nil && st.revocations >= sp.MaxRevocations {
		if !st.fellBack {
			st.fellBack = true
			cm.p.Counters.SpotFallbacks.Inc()
		}
		return false
	}
	return true
}

// leaseVia is the shared cloud acquisition ladder: a spot attempt at
// BidMultiplier x the current quote when allowed, an on-demand retry on
// the same provider after a failed spot request, failover across the
// remaining providers, and finally exhausted(). Successful leases are
// handed to attached() after the configure latency with mid-configure
// revocations filtered out (their charges settled provider-side) and
// reported as the lost count.
func (cm *ClusterManager) leaseVia(p *cloud.Provider, typeName string, n int, duration sim.Time, spotOK bool,
	attached func(p *cloud.Provider, live []*cloud.Instance, lost int), exhausted func()) {
	spot, bid := false, 0.0
	if spotOK {
		if q, err := p.Quote(typeName); err == nil {
			spot, bid = true, q*cm.cfg.Spot.BidMultiplier
		}
	}
	done := func(insts []*cloud.Instance, err error) {
		if err != nil {
			cm.p.Counters.CloudFailures.Inc()
			if spot {
				// Outbid or flaky spot request: fall back to an
				// on-demand lease from the same provider.
				cm.p.Counters.SpotFallbacks.Inc()
				cm.leaseVia(p, typeName, n, duration, false, attached, exhausted)
				return
			}
			if next, nextType, _ := cm.cheapestProvider(p, n, duration); next != nil {
				cm.leaseVia(next, nextType, n, duration, spotOK, attached, exhausted)
				return
			}
			exhausted()
			return
		}
		cm.p.Counters.CloudLeases.AddN(int64(n))
		if spot {
			cm.p.Counters.SpotLeases.AddN(int64(n))
		}
		cm.p.Eng.Schedule(cm.lat(latCloudConfigure), func() {
			live := insts[:0]
			for _, inst := range insts {
				if inst.State == cloud.InstanceRunning {
					live = append(live, inst)
				}
			}
			attached(p, live, n-len(live))
		})
	}
	if spot {
		cm.p.RM.LeaseSpot(p, typeName, cm.Image(), bid, n, done)
	} else {
		cm.p.RM.Lease(p, typeName, cm.Image(), n, done)
	}
}

// yieldLocalAndRun implements option 3: make a local victim yield
// (suspend it, or shrink it when the bid says so) and run the new
// application on the freed VMs.
func (cm *ClusterManager) yieldLocalAndRun(st *appState, bid Bid) {
	n := st.contract.NumVMs
	cm.p.Eng.Schedule(cm.lat(latSuspendLocal), func() {
		if !cm.yieldVictim(cm, bid, n) || cm.avail < n {
			// The victim vanished (finished or already yielded to a
			// concurrent decision); re-run the protocol.
			cm.selectResources(st)
			return
		}
		cm.commit(st, metrics.PlacementLocal)
	})
}

// yieldVictim makes an application on the owner CM give up n VMs:
// suspension for batch/mapreduce victims, replica shrinking for
// services. It reports false when the victim can no longer yield.
func (cm *ClusterManager) yieldVictim(owner *ClusterManager, bid Bid, n int) bool {
	if bid.Shrink {
		return cm.shrinkVictim(owner, bid.victim, n)
	}
	return cm.suspendVictim(owner, bid.victim)
}

// suspendVictim suspends an application on the owner CM and updates the
// owner's bookkeeping: the freed VMs become available and the victim
// joins the owner's resume queue. It reports false when the victim is no
// longer running (e.g. it finished, or a concurrent decision already
// suspended it).
func (cm *ClusterManager) suspendVictim(owner *ClusterManager, vs *appState) bool {
	if vs.job == nil {
		return false
	}
	victimID := vs.app.ID
	released := vs.contract.NumVMs
	if vs.contract.SLO != nil {
		// An elastic service frees its *current* replica set; it will
		// restart at the contracted count.
		released = vs.lastReplicas
	}
	if err := owner.fw.Suspend(victimID); err != nil {
		return false
	}
	owner.avail += released
	resumeVMs := vs.contract.NumVMs
	if owner.cfg.Type == workload.TypeServerless {
		// A resumed function restarts cold at zero instances and scales
		// back up through the free pool; its resume needs no head-room.
		resumeVMs = 0
	}
	owner.victims = append(owner.victims, victim{st: vs, vms: resumeVMs})
	cm.p.Counters.Suspensions.Inc()
	return true
}

// shrinker is the replica-yielding surface a framework must expose for
// its jobs to serve as shrink victims — the service framework's elastic
// replica sets and the serverless framework's warm instance fleets both
// qualify.
type shrinker interface {
	ReplicaKinds(id string) (private, cloud int, err error)
	Shrink(id string, n int) error
}

// shrinkVictim reclaims n replicas from a running service (or warm
// instances from a running function) on the owner CM. The framework's
// OnScale notification updates the owner's avail and accounting; the
// freed nodes join the owner's free index, where the requester picks
// them up (locally, or through the VM-exchange detach). It reports
// false when the victim can no longer yield n.
func (cm *ClusterManager) shrinkVictim(owner *ClusterManager, vs *appState, n int) bool {
	if vs.job == nil || vs.job.State != framework.JobRunning || vs.job.Replicas-n < 1 {
		return false
	}
	victimID := vs.app.ID
	svc, ok := owner.fw.(shrinker)
	if !ok {
		return false
	}
	// Re-verify (the replica mix may have shifted since the bid) that
	// the shrink frees transferable private hosts, not cloud leases.
	if private, _, err := svc.ReplicaKinds(victimID); err != nil || private < n {
		return false
	}
	if err := svc.Shrink(victimID, n); err != nil {
		return false
	}
	cm.p.Counters.ReplicaReclaims.AddN(int64(n))
	return true
}

// acquireFromVC implements options 2 and 4 (paper §3.4): the source CM
// removes VMs from its framework and shuts them down; the destination CM
// starts fresh VMs with its own image, configures them and adds them to
// its framework. When the bid names a victim, it yields first —
// suspension for batch/mapreduce lenders, replica shrinking for service
// lenders.
func (cm *ClusterManager) acquireFromVC(peer *ClusterManager, st *appState, bid Bid) {
	n := st.contract.NumVMs
	proceed := func() {
		if peer.avail < n || peer.freePrivateCount() < n {
			// State changed under us; start over.
			cm.selectResources(st)
			return
		}
		peer.avail -= n
		ids, _ := peer.detachFreeNodes(n, false)
		if len(ids) != n {
			panic(fmt.Sprintf("core: %s promised %d free private VMs, found %d", peer.name, n, len(ids)))
		}
		var ln *loan
		if bid.VictimID != "" {
			ln = &loan{lender: peer, borrower: cm, n: n, victimID: bid.VictimID}
		}
		cm.p.RM.StopPrivate(ids, func(err error) {
			if err != nil {
				panic(fmt.Sprintf("core: stopping transferred VMs: %v", err))
			}
			// "The Cluster Manager of the source VC informs the Cluster
			// Manager of the destination VC that the VMs are available."
			cm.receiveTransferredVMs(st, n, ln)
		})
	}
	if bid.VictimID == "" {
		proceed()
		return
	}
	cm.p.Eng.Schedule(cm.lat(latSuspendRemote), func() {
		if !cm.yieldVictim(peer, bid, n) {
			cm.selectResources(st)
			return
		}
		proceed()
	})
}

// receiveTransferredVMs starts replacement VMs with the destination
// image, configures them, attaches them and dispatches the application.
func (cm *ClusterManager) receiveTransferredVMs(st *appState, n int, ln *loan) {
	cm.p.RM.StartPrivate(cm.Image(), n, func(vms []*vmm.VM, err error) {
		if err != nil {
			panic(fmt.Sprintf("core: starting transferred VMs for %s: %v", cm.name, err))
		}
		cm.p.Eng.Schedule(cm.lat(latConfigure), func() {
			for _, vm := range vms {
				if !cm.attachPrivate(vm.ID, vm.SpeedFactor) {
					cm.replacePrivate()
				}
			}
			cm.p.Counters.VMTransfers.AddN(int64(n))
			st.loan = ln
			cm.commit(st, metrics.PlacementVC)
		})
	})
}

// burstToCloud leases from the cheapest provider (option 5 / the static
// baseline's only elasticity).
func (cm *ClusterManager) burstToCloud(st *appState) {
	p, typeName, _ := cm.cheapestCloud(st.contract.NumVMs, st.contract.ExecEst, st)
	if p == nil {
		cm.pending = append(cm.pending, st)
		return
	}
	cm.burstToCloudVia(st, p, typeName)
}

// burstToCloudVia leases n instances from a specific provider — spot
// when the VC's policy says so — with fallback to on-demand on a failed
// spot request, then to the remaining providers (paper §3.5).
func (cm *ClusterManager) burstToCloudVia(st *appState, p *cloud.Provider, typeName string) {
	n := st.contract.NumVMs
	cm.leaseVia(p, typeName, n, st.contract.ExecEst, cm.spotAllowed(st),
		func(p *cloud.Provider, live []*cloud.Instance, lost int) {
			for _, inst := range live {
				cm.attachCloud(inst, p)
			}
			if lost > 0 {
				// Some leases vanished before joining the framework;
				// their settled charges count against the application's
				// revocation budget (or thin bids could bypass the
				// on-demand fallback forever), the survivors stay as
				// uncommitted capacity and the application re-runs the
				// selection protocol.
				st.revocations += lost
				st.rec.Revocations += lost
				cm.selectResources(st)
				return
			}
			cm.commit(st, metrics.PlacementCloud)
		},
		func() {
			// All providers failed; retry the whole protocol shortly.
			cm.p.Eng.Schedule(sim.Seconds(5), func() { cm.selectResources(st) })
		})
}

// leaseReplacement re-leases one cloud instance for an application that
// lost a node to a revocation or crash: the selection re-runs against
// current quotes, spot again while the application is inside its VC's
// revocation budget, on-demand past it. A failed replacement tries the
// remaining providers, then retries after a pause.
func (cm *ClusterManager) leaseReplacement(st *appState) {
	p, typeName, _ := cm.cheapestCloud(1, st.contract.ExecEst, st)
	if p == nil {
		return
	}
	cm.leaseVia(p, typeName, 1, st.contract.ExecEst, cm.spotAllowed(st),
		func(p *cloud.Provider, live []*cloud.Instance, lost int) {
			// If any job is still running or queued, attach: the work
			// that lost the node (not necessarily st — a shared
			// mapreduce node hosts several jobs) can use the capacity,
			// and any future finish garbage-collects it if idle. Only
			// a fully drained framework would strand the lease.
			drained := len(cm.fw.Running()) == 0 && len(cm.fw.QueuedJobs()) == 0
			for _, inst := range live {
				if drained {
					cm.p.RM.Release(p, inst.ID)
					continue
				}
				cm.attachCloud(inst, p)
			}
			// Leases revoked before they ever attached still count
			// against the revocation budget — they settled real
			// charges, and without this the thin-bid retry loop would
			// never reach the on-demand fallback. Re-lease for them
			// only while there is work left to host.
			st.revocations += lost
			st.rec.Revocations += lost
			if !drained {
				for i := 0; i < lost; i++ {
					cm.leaseReplacement(st)
				}
			}
			cm.tryResumeVictims()
			cm.retryPending()
		},
		func() {
			cm.p.Eng.Schedule(sim.Seconds(5), func() { cm.leaseReplacement(st) })
		})
}

// cheapestProvider returns the provider and instance type with the
// lowest posted cost of n VMs for the duration, and that cost, passing
// over skip (a provider whose lease just failed, or nil).
func (cm *ClusterManager) cheapestProvider(skip *cloud.Provider, n int, duration sim.Time) (*cloud.Provider, string, float64) {
	var (
		bestP    *cloud.Provider
		bestType string
		bestCost = math.Inf(1)
	)
	for _, p := range cm.p.RM.Clouds() {
		if p == skip {
			continue
		}
		for _, typeName := range cm.p.cloudTypes[p.Name()] {
			c, err := p.CostIfRunFor(typeName, duration)
			if err != nil {
				continue
			}
			if total := c * float64(n); total < bestCost {
				bestP, bestType, bestCost = p, typeName, total
			}
		}
	}
	return bestP, bestType, bestCost
}

// processLoanReturns transfers borrowed VM counts back to lenders when
// idle private VMs are available, deferring otherwise.
func (cm *ClusterManager) processLoanReturns() {
	var remaining []*loan
	for _, ln := range cm.owedLoan {
		if cm.avail < ln.n || cm.freePrivateCount() < ln.n {
			remaining = append(remaining, ln)
			continue
		}
		cm.avail -= ln.n
		ids, _ := cm.detachFreeNodes(ln.n, false)
		lender := ln.lender
		count := ln.n
		cm.p.RM.StopPrivate(ids, func(err error) {
			if err != nil {
				panic(fmt.Sprintf("core: stopping returned VMs: %v", err))
			}
			cm.p.RM.StartPrivate(lender.Image(), count, func(vms []*vmm.VM, err error) {
				if err != nil {
					panic(fmt.Sprintf("core: restarting returned VMs: %v", err))
				}
				lender.p.Eng.Schedule(lender.lat(latConfigure), func() {
					for _, vm := range vms {
						if !lender.attachPrivate(vm.ID, vm.SpeedFactor) {
							lender.replacePrivate()
						}
					}
					lender.p.Counters.LoanReturns.Inc()
					lender.tryResumeVictims()
					lender.retryPending()
				})
			})
		})
	}
	cm.owedLoan = remaining
}
