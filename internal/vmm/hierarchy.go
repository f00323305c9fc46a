package vmm

import (
	"errors"
	"fmt"
	"sort"

	"meryn/internal/sim"
)

// This file models Snooze's defining trait: self-organizing hierarchical
// management (Feller et al., CCGRID 2012 — reference [6] of the paper).
// A Hierarchy arranges one Group Leader (GL) above Group Managers (GMs),
// each supervising a set of Local Controllers (LCs, one per physical
// node). Heartbeats flow upward; missed heartbeats trigger failure
// detection, LC reassignment and deterministic leader re-election. The
// Meryn Resource Manager itself only needs start/stop/describe, so the
// hierarchy is an optional management plane over Manager — exactly the
// role Snooze's hierarchy plays beneath its client API.

// Role is a hierarchy member's current role.
type Role int

// Hierarchy roles.
const (
	RoleLocalController Role = iota
	RoleGroupManager
	RoleGroupLeader
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleGroupLeader:
		return "group-leader"
	case RoleGroupManager:
		return "group-manager"
	default:
		return "local-controller"
	}
}

// member is one management entity in the hierarchy.
type member struct {
	id        string
	role      Role
	alive     bool
	managerID string   // for LCs: supervising GM
	charges   []string // for GMs: supervised LC ids (sorted)
	lastBeat  sim.Time
}

// HierarchyConfig tunes the management plane.
type HierarchyConfig struct {
	GroupManagers     int      // number of GMs (default 2)
	HeartbeatInterval sim.Time // default 3 s
	FailureTimeout    sim.Time // missed-beat window; default 3 intervals
}

// Hierarchy is a Snooze-like management overlay for one site.
type Hierarchy struct {
	eng     *sim.Engine
	cfg     HierarchyConfig
	members map[string]*member
	leader  string
	ticker  sim.Timer

	// Failovers counts GM/GL replacements performed.
	Failovers int
	// Reassignments counts LCs moved between GMs.
	Reassignments int
}

// Errors returned by Hierarchy operations.
var (
	ErrUnknownMember = errors.New("vmm: unknown hierarchy member")
	ErrDeadMember    = errors.New("vmm: hierarchy member is not alive")
)

// NewHierarchy builds the overlay for a site with the given node IDs
// (typically one LC per physical node). GMs and the GL are dedicated
// entities, as in Snooze's default deployment.
func NewHierarchy(eng *sim.Engine, nodeIDs []string, cfg HierarchyConfig) *Hierarchy {
	if cfg.GroupManagers <= 0 {
		cfg.GroupManagers = 2
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = sim.Seconds(3)
	}
	if cfg.FailureTimeout <= 0 {
		cfg.FailureTimeout = 3 * cfg.HeartbeatInterval
	}
	h := &Hierarchy{eng: eng, cfg: cfg, members: make(map[string]*member)}

	var gmIDs []string
	for i := 0; i < cfg.GroupManagers; i++ {
		id := fmt.Sprintf("gm-%02d", i)
		h.members[id] = &member{id: id, role: RoleGroupManager, alive: true, lastBeat: eng.Now()}
		gmIDs = append(gmIDs, id)
	}
	for i, nid := range nodeIDs {
		id := "lc-" + nid
		gm := gmIDs[i%len(gmIDs)]
		m := &member{id: id, role: RoleLocalController, alive: true, managerID: gm, lastBeat: eng.Now()}
		h.members[id] = m
		h.members[gm].charges = append(h.members[gm].charges, id)
	}
	for _, gm := range gmIDs {
		sort.Strings(h.members[gm].charges)
	}
	h.electLeader()
	return h
}

// Start begins the heartbeat/monitoring loop. Stop it with Stop; an
// unstopped loop keeps the simulation's event queue alive.
func (h *Hierarchy) Start() {
	if h.ticker.Active() {
		return
	}
	h.ticker = h.eng.Every(h.cfg.HeartbeatInterval, h.tick)
}

// Stop halts monitoring.
func (h *Hierarchy) Stop() { h.ticker.Cancel() }

// Leader returns the current Group Leader's ID.
func (h *Hierarchy) Leader() string { return h.leader }

// ManagerOf returns the GM supervising an LC.
func (h *Hierarchy) ManagerOf(lcID string) (string, error) {
	m, ok := h.members[lcID]
	if !ok || m.role != RoleLocalController {
		return "", fmt.Errorf("%w: %s", ErrUnknownMember, lcID)
	}
	return m.managerID, nil
}

// Charges returns the LC ids supervised by a GM (sorted).
func (h *Hierarchy) Charges(gmID string) []string {
	m, ok := h.members[gmID]
	if !ok {
		return nil
	}
	out := make([]string, len(m.charges))
	copy(out, m.charges)
	return out
}

// AliveGroupManagers lists alive GMs (sorted).
func (h *Hierarchy) AliveGroupManagers() []string {
	var out []string
	for id, m := range h.members {
		if m.role == RoleGroupManager && m.alive {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Kill marks a member failed. Detection (and any failover) happens on
// the next monitoring tick after the failure timeout elapses, as with
// real heartbeat protocols.
func (h *Hierarchy) Kill(id string) error {
	m, ok := h.members[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownMember, id)
	}
	if !m.alive {
		return fmt.Errorf("%w: %s", ErrDeadMember, id)
	}
	m.alive = false
	return nil
}

// tick advances heartbeats for alive members and runs failure detection.
func (h *Hierarchy) tick() {
	now := h.eng.Now()
	for _, m := range h.members {
		if m.alive {
			m.lastBeat = now
		}
	}
	// Detect the dead GL first (the GMs re-elect), then dead GMs (the GL
	// redistributes their LCs).
	if leader := h.members[h.leader]; h.leader != "" && (leader == nil || !leader.alive) {
		h.Failovers++
		h.electLeader()
	}
	var dead []string
	for id, m := range h.members {
		if (m.role == RoleGroupManager || m.role == RoleGroupLeader) &&
			!m.alive && now-m.lastBeat >= h.cfg.FailureTimeout {
			dead = append(dead, id)
		}
	}
	sort.Strings(dead)
	for _, id := range dead {
		h.failoverGM(id)
	}
}

// electLeader promotes the lexicographically smallest alive GM to GL —
// a deterministic stand-in for Snooze's ZooKeeper-style election.
func (h *Hierarchy) electLeader() {
	alive := h.AliveGroupManagers()
	if len(alive) == 0 {
		h.leader = ""
		return
	}
	h.leader = alive[0]
	h.members[h.leader].role = RoleGroupLeader
}

// failoverGM redistributes a dead GM's LCs across surviving GMs.
func (h *Hierarchy) failoverGM(gmID string) {
	dead := h.members[gmID]
	if len(dead.charges) == 0 {
		return
	}
	alive := h.AliveGroupManagers()
	// The GL also supervises LCs if it is the only survivor.
	if len(alive) == 0 && h.leader != "" && h.members[h.leader].alive {
		alive = []string{h.leader}
	}
	if len(alive) == 0 {
		return // nobody left; LCs orphaned until new GMs join
	}
	for i, lcID := range dead.charges {
		target := alive[i%len(alive)]
		h.members[lcID].managerID = target
		h.members[target].charges = append(h.members[target].charges, lcID)
		h.Reassignments++
	}
	for _, gm := range alive {
		sort.Strings(h.members[gm].charges)
	}
	dead.charges = nil
}

// AddGroupManager joins a fresh GM (healing after failures).
func (h *Hierarchy) AddGroupManager(id string) error {
	if _, dup := h.members[id]; dup {
		return fmt.Errorf("vmm: hierarchy member %s already exists", id)
	}
	h.members[id] = &member{id: id, role: RoleGroupManager, alive: true, lastBeat: h.eng.Now()}
	if h.leader == "" {
		h.electLeader()
	}
	return nil
}
