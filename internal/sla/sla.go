// Package sla implements the paper's SLA model (§4.2.1): contracts with
// two metrics — deadline and price (Eq. 1 and 2) — a delay penalty
// proportional to lateness with divisor N (Eq. 3, optionally bounded),
// and the multi-round negotiation protocol in which the provider proposes
// (deadline, price) pairs and the user either picks one or imposes one
// metric and receives the other.
package sla

import (
	"errors"
	"fmt"

	"meryn/internal/sim"
)

// Offer is one (deadline, price) pair proposed during negotiation. The
// deadline is relative to submission ("the overall time to run an
// application and give results"). For service contracts (Provider.SLO
// set) the time column is the achievable p95 latency target instead and
// the price covers the contracted lifetime.
type Offer struct {
	NumVMs   int      // VMs the provider would dedicate
	Deadline sim.Time // Eq. 1: execution time + processing time (service: p95 target)
	Price    float64  // Eq. 2: execution time * nb VMs * VM price
}

// Contract is an agreed SLA.
type Contract struct {
	AppID    string
	NumVMs   int
	Deadline sim.Time // relative to submission
	Price    float64
	VMPrice  float64 // user-facing VM price, units per VM-second
	ExecEst  sim.Time

	// PenaltyN is Eq. 3's divisor N: how fast the penalty grows with
	// delay. High N favours the provider, low N the user.
	PenaltyN float64
	// MaxPenaltyFrac bounds the penalty to this fraction of the price
	// ("the delay penalty may be bounded ... to limit platform losses").
	// Zero means unbounded.
	MaxPenaltyFrac float64

	// SLO, when non-nil, marks a service contract: Deadline bounds the
	// overall completion (lifetime + processing), ExecEst carries the
	// contracted lifetime, and penalties accrue per burned SLO interval
	// (SLOPenalty) instead of per late completion.
	SLO *SLO

	// Per-invocation terms (serverless contracts; zero otherwise).
	// PerInvocation is the metered charge per served request and
	// CostCap bounds the total metered spend — the agreed price quotes
	// the projection, and the platform throttles rather than
	// surprise-bills past the cap.
	PerInvocation float64
	CostCap       float64
}

// Price implements Eq. 2: price = execution_time * nb_vms * vm_price.
func Price(exec sim.Time, nbVMs int, vmPrice float64) float64 {
	return sim.ToSeconds(exec) * float64(nbVMs) * vmPrice
}

// Deadline implements Eq. 1: deadline = execution_time + processing_time.
func Deadline(exec, processing sim.Time) sim.Time { return exec + processing }

// DelayPenalty implements Eq. 3:
// penalty = (delay * nb_vms * vm_price) / N, N > 0. It panics on N <= 0,
// which the paper excludes by definition.
func DelayPenalty(delay sim.Time, nbVMs int, vmPrice, n float64) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("sla: DelayPenalty with N=%g (must be > 0)", n))
	}
	if delay <= 0 {
		return 0
	}
	return sim.ToSeconds(delay) * float64(nbVMs) * vmPrice / n
}

// PenaltyFor returns the contract's penalty for a given delay, applying
// the optional bound.
func (c *Contract) PenaltyFor(delay sim.Time) float64 {
	p := DelayPenalty(delay, c.NumVMs, c.VMPrice, c.PenaltyN)
	if c.MaxPenaltyFrac > 0 {
		if bound := c.MaxPenaltyFrac * c.Price; p > bound {
			p = bound
		}
	}
	return p
}

// AbsoluteDeadline converts the relative deadline to an absolute time.
func (c *Contract) AbsoluteDeadline(submittedAt sim.Time) sim.Time {
	return submittedAt + c.Deadline
}

// PerfModel predicts an application's execution time on n dedicated VMs.
// It is the framework-specific knowledge the paper assumes Cluster
// Managers possess ("the batch Cluster Manager may deduce the application
// execution time based on its dedicated number of VMs and vice versa").
type PerfModel func(nbVMs int) sim.Time

// Provider is the Cluster Manager side of a negotiation.
type Provider struct {
	Model          PerfModel
	Processing     sim.Time // Eq. 1's processing-time term (paper uses the worst case, 84 s)
	VMPrice        float64  // user-facing VM price per VM-second
	PenaltyN       float64
	MaxPenaltyFrac float64
	MinVMs         int // smallest VM count offered (default 1)
	MaxVMs         int // largest VM count offered (default 1)

	// SLO, when non-nil, switches the provider to service-contract
	// negotiation: Model maps replica counts to achievable p95 latency,
	// offers price the contracted SLO.Lifetime (not the model time), and
	// agreed contracts carry the latency/availability SLO.
	SLO *SLOTemplate
}

// Offers generates the provider's proposal set: one (deadline, price)
// pair per candidate VM count — or, for service providers, one
// (p95 target, lifetime price) pair per candidate replica count.
func (p *Provider) Offers() []Offer {
	lo, hi := p.MinVMs, p.MaxVMs
	if lo <= 0 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	lifetime := sim.Time(0)
	if p.SLO != nil {
		t, err := p.SLO.normalized()
		if err != nil {
			panic(err.Error())
		}
		lifetime = t.Lifetime
	}
	out := make([]Offer, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		exec := p.Model(n)
		priceBase := exec
		if p.SLO != nil {
			priceBase = lifetime
		}
		price := Price(priceBase, n, p.VMPrice)
		if p.SLO != nil && p.SLO.Invocation != nil {
			price = p.SLO.Invocation.price(lifetime, n, p.VMPrice)
		}
		out = append(out, Offer{
			NumVMs:   n,
			Deadline: Deadline(exec, p.Processing),
			Price:    price,
		})
	}
	return out
}

// OfferForDeadline answers a user-imposed deadline: the cheapest offer
// meeting it, or false when no VM count can. Near-ties in price (within
// relative 1e-9, which perfect-scaling models produce through float
// rounding) resolve to the offer with fewer VMs.
func (p *Provider) OfferForDeadline(d sim.Time) (Offer, bool) {
	var best Offer
	found := false
	for _, o := range p.Offers() {
		if o.Deadline > d {
			continue
		}
		if !found || o.Price < best.Price-1e-9*best.Price {
			best = o
			found = true
		}
	}
	return best, found
}

// OfferForPrice answers a user-imposed budget: the fastest offer within
// it, or false when even the cheapest offer exceeds the budget.
func (p *Provider) OfferForPrice(budget float64) (Offer, bool) {
	var best Offer
	found := false
	for _, o := range p.Offers() {
		if o.Price <= budget && (!found || o.Deadline < best.Deadline) {
			best = o
			found = true
		}
	}
	return best, found
}

// Response is a user's reply in one negotiation round.
type Response struct {
	Accept *Offer // non-nil: accept this offer (by value)

	// Otherwise exactly one of the constraints below is set to open the
	// next round.
	ImposeDeadline sim.Time
	ImposePrice    float64
}

// User is a negotiation strategy: given the provider's current proposal
// set, produce a response. Round counts from 0.
type User interface {
	Respond(round int, offers []Offer) Response
}

// ErrNoAgreement is returned when negotiation exhausts its rounds.
var ErrNoAgreement = errors.New("sla: negotiation ended without agreement")

// MaxRounds bounds negotiations; the paper lets users iterate "until she
// agrees", a patience we cap to keep simulations finite.
const MaxRounds = 16

// Negotiate runs the protocol of §4.2.1 to completion by driving the
// Negotiation state machine with a User strategy, and returns the agreed
// contract. Interactive callers use NewNegotiation directly and respond
// one round at a time.
func Negotiate(appID string, p *Provider, u User) (*Contract, error) {
	return Drive(NewNegotiation(appID, p), u)
}

// Drive resolves an open negotiation with a User strategy: the user
// responds to each proposal set until it accepts (returning the
// contract), sends an invalid response (returning that error), or the
// machine fails on the round budget (ErrNoAgreement).
func Drive(n *Negotiation, u User) (*Contract, error) {
	for n.State() == NegOffered {
		resp := u.Respond(n.Round(), n.Offers())
		if resp.Accept != nil {
			return n.AcceptOffer(*resp.Accept)
		}
		if err := n.Impose(resp); err != nil {
			return nil, err
		}
	}
	return nil, ErrNoAgreement
}

func (p *Provider) contractFor(appID string, o Offer) *Contract {
	n := p.PenaltyN
	if n <= 0 {
		n = 2 // the paper's balanced example value
	}
	c := &Contract{
		AppID:          appID,
		NumVMs:         o.NumVMs,
		Deadline:       o.Deadline,
		Price:          o.Price,
		VMPrice:        p.VMPrice,
		ExecEst:        o.Deadline - p.Processing,
		PenaltyN:       n,
		MaxPenaltyFrac: p.MaxPenaltyFrac,
	}
	if p.SLO != nil {
		// Service contract: the offer's time column was the p95 target;
		// completion is bounded by the contracted lifetime instead.
		t, err := p.SLO.normalized()
		if err != nil {
			panic(err.Error())
		}
		c.SLO = p.sloFor(o, n)
		c.Deadline = t.Lifetime + t.StartupGrace
		c.ExecEst = t.Lifetime
		if ip := t.Invocation; ip != nil {
			// Pay-per-use terms: the quoted projection is the spend
			// ceiling; a user-imposed price lowers the cap with it.
			c.PerInvocation = ip.PerInvocation(p.VMPrice)
			c.CostCap = o.Price
		}
	}
	return c
}

// AcceptFirst is a user that takes the first offer — the paper's
// evaluation behaviour (users accept the proposed pair).
type AcceptFirst struct{}

// Respond implements User.
func (AcceptFirst) Respond(_ int, offers []Offer) Response {
	return Response{Accept: &offers[0]}
}

// AcceptCheapest takes the lowest-price offer.
type AcceptCheapest struct{}

// Respond implements User.
func (AcceptCheapest) Respond(_ int, offers []Offer) Response {
	best := 0
	for i, o := range offers {
		if o.Price < offers[best].Price {
			best = i
		}
	}
	return Response{Accept: &offers[best]}
}

// DeadlineBound imposes a deadline (an "urgent application" user), then
// accepts whatever the provider quotes for it.
type DeadlineBound struct{ Deadline sim.Time }

// Respond implements User.
func (d DeadlineBound) Respond(round int, offers []Offer) Response {
	if round > 0 {
		for i := range offers {
			if offers[i].Deadline <= d.Deadline {
				return Response{Accept: &offers[i]}
			}
		}
	}
	return Response{ImposeDeadline: d.Deadline}
}

// BudgetBound imposes a price cap (a "budget constrained" user), then
// accepts the provider's counter-offer if it fits.
type BudgetBound struct{ Budget float64 }

// Respond implements User.
func (b BudgetBound) Respond(round int, offers []Offer) Response {
	if round > 0 {
		for i := range offers {
			if offers[i].Price <= b.Budget {
				return Response{Accept: &offers[i]}
			}
		}
	}
	return Response{ImposePrice: b.Budget}
}

// Picky accepts only offers satisfying both bounds and relaxes its
// deadline by 25% each round — exercising multi-round convergence.
type Picky struct {
	Budget   float64
	Deadline sim.Time
}

// Respond implements User.
func (p Picky) Respond(round int, offers []Offer) Response {
	limit := p.Deadline + p.Deadline*sim.Time(round)/4
	for i := range offers {
		if offers[i].Price <= p.Budget && offers[i].Deadline <= limit {
			return Response{Accept: &offers[i]}
		}
	}
	return Response{ImposeDeadline: limit}
}
