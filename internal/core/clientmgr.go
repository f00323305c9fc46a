package core

import (
	"fmt"

	"meryn/internal/metrics"
	"meryn/internal/workload"
)

// ClientManager is the uniform entry point of the system (paper §3.2):
// it receives submission requests and transfers them to the Cluster
// Manager matching the application type. Meryn runs several Client
// Managers to avoid a bottleneck in peak periods; they are stateless, so
// we model the pool as round-robin pick of an entry point whose only
// effect is the transfer latency.
type ClientManager struct {
	p    *Platform
	next int

	// Submissions counts arrivals per entry point.
	Submissions []metrics.Counter
}

// NumClientManagers is the size of the Client Manager pool (the paper
// deploys one per submission stream; two streams in the evaluation).
const NumClientManagers = 2

// NewClientManager builds the entry-point pool.
func NewClientManager(p *Platform) *ClientManager {
	return &ClientManager{p: p, Submissions: make([]metrics.Counter, NumClientManagers)}
}

// Submit receives a user submission and the session's negotiation
// handle for it: it opens the accounting record and transfers the
// description, the record and the handle to the Cluster Manager of the
// application's VC. Routing falls back to the first VC whose framework
// type matches when the application names no VC.
func (c *ClientManager) Submit(app workload.App, neg *Negotiation) {
	entry := c.next % NumClientManagers
	c.next++
	c.Submissions[entry].Inc()

	cm := c.route(app)
	if cm == nil {
		c.p.Counters.Rejections.Inc()
		c.p.appSettled(app.ID, nil, 0)
		neg.noteRejected(fmt.Errorf("core: no VC hosts application type %q", app.Type))
		return
	}
	rec := c.p.Ledger.Open(app.ID)
	rec.SubmitTime = c.p.Eng.Now()
	rec.VC = cm.Name()
	rec.Type = string(cm.cfg.Type)
	c.p.Eng.Schedule(cm.lat(latClientTransfer), func() {
		cm.handleSubmission(app, rec, neg)
	})
}

// route finds the Cluster Manager for an application.
func (c *ClientManager) route(app workload.App) *ClusterManager {
	if app.VC != "" {
		return c.p.cms[app.VC]
	}
	for _, name := range c.p.cmOrder {
		if c.p.cms[name].cfg.Type == app.Type {
			return c.p.cms[name]
		}
	}
	return nil
}
