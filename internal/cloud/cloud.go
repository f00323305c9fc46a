// Package cloud simulates public IaaS providers (the paper's Amazon-EC2-
// like clouds). A Provider offers instance types at fixed or market
// (spot-like) prices, launches instances after a provisioning latency,
// and bills leases per second or per hour. Leases come in two kinds:
// on-demand (never preempted) and spot (carrying a bid; the lease is
// revoked on the market tick whose price first exceeds the bid, the
// defining risk Algorithm 1's "current market VM price" query prices
// in). The paper assumes infinite cloud capacity; providers default to
// that but support quotas, and API failure injection exercises the
// bursting error paths.
package cloud

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/vmm"
)

// Billing selects how leases are charged.
type Billing int

// Billing models. The paper charges by execution time (per-second);
// per-hour round-up is how EC2 billed in 2013 and is kept as an ablation.
const (
	BillPerSecond Billing = iota
	BillPerHour
)

// String implements fmt.Stringer.
func (b Billing) String() string {
	if b == BillPerHour {
		return "per-hour"
	}
	return "per-second"
}

// InstanceType describes a purchasable VM flavour.
type InstanceType struct {
	Name        string
	Shape       vmm.Shape
	SpeedFactor float64 // relative CPU speed of the backing hardware
	Price       float64 // on-demand price, units per VM-second
}

// InstanceState is the lease lifecycle.
type InstanceState int

// Instance lifecycle states.
const (
	InstancePending InstanceState = iota
	InstanceRunning
	InstanceTerminated
)

// Instance is one leased cloud VM.
type Instance struct {
	ID          string
	Provider    string
	Type        string
	Image       string
	Shape       vmm.Shape
	SpeedFactor float64
	State       InstanceState

	// Spot marks a preemptible lease; Bid is the most the holder pays
	// per VM-second. The lease is revoked when the market price exceeds
	// the bid.
	Spot bool
	Bid  float64
	// Revoked is set when the provider preempted the lease (market
	// crossed the bid) rather than the holder terminating it.
	Revoked bool

	LaunchedAt    sim.Time // when the instance became running
	PriceAtLaunch float64  // units per VM-second locked at launch completion
	TerminatedAt  sim.Time
	Charge        float64 // final bill, set at termination or revocation

	slot int // index in the provider's live slice while tracked
}

// MarketConfig enables spot-like price movement around each type's base
// price. Quotes then return the market price instead of the fixed price.
type MarketConfig struct {
	Volatility float64  // shock scale as a fraction of base price
	Reversion  float64  // mean-reversion strength per tick, in (0,1]
	Floor      float64  // fraction of base price acting as a floor
	Tick       sim.Time // how often prices move
}

// Config configures a Provider.
type Config struct {
	Name             string
	Types            []InstanceType
	ProvisionLatency stats.Dist // request to running
	TerminateLatency stats.Dist // request to terminated
	Billing          Billing
	Quota            int // max concurrent instances; 0 = unlimited (paper assumption)
	Seed             int64
	Market           *MarketConfig // nil = fixed on-demand pricing

	// FailureProb is the probability that a launch request fails with
	// ErrLaunchFailed (API flakiness injection).
	FailureProb float64
}

// Errors returned by Provider operations.
var (
	ErrUnknownType  = errors.New("cloud: unknown instance type")
	ErrNoImage      = errors.New("cloud: image not uploaded to this provider")
	ErrQuota        = errors.New("cloud: quota exceeded")
	ErrLaunchFailed = errors.New("cloud: launch request failed")
	ErrNotFound     = errors.New("cloud: no such instance")
	ErrBadState     = errors.New("cloud: instance not running")
	ErrOutbid       = errors.New("cloud: spot bid below current market price")
)

// Provider is one public cloud endpoint.
type Provider struct {
	eng        *sim.Engine
	cfg        Config
	rng        *sim.RNG
	types      map[string]InstanceType
	markets    map[string]*stats.MarketPrice
	marketAt   sim.Time // last market advance
	namesCache []string
	images     map[string]bool
	// leases holds pending and running instances only: settled leases
	// (terminated, revoked, failed) are pruned so long-running wall-mode
	// deployments do not grow without bound. Aggregates (TotalSpend,
	// counters) survive the pruning. live holds the same leases in
	// launch order, except that pruning swap-removes a lease through
	// the slot it records; Audit walks it instead of the map.
	leases  map[string]*Instance
	live    []*Instance
	nextID  int
	active  int
	spotRun []*Instance // running spot leases in launch order
	watchOn bool        // a market-tick revocation check is scheduled

	// onRevoke is called synchronously when a spot lease is revoked,
	// after its partial charge has settled.
	onRevoke func(*Instance)

	// UsedGauge tracks pending+running instances over time (Figure 5's
	// "Cloud VMs" curve is the sum of these across providers).
	UsedGauge *metrics.Gauge
	// TotalSpend accumulates final charges from terminated leases.
	TotalSpend float64
	// SpotSpend is the spot-lease share of TotalSpend.
	SpotSpend float64
	// Launches and Failures count API outcomes; Revocations counts
	// running spot leases preempted by the market (requests outbid
	// during provisioning are cancelled unbilled and not counted).
	Launches    metrics.Counter
	Failures    metrics.Counter
	Revocations metrics.Counter
}

// New validates cfg and returns a Provider.
func New(eng *sim.Engine, cfg Config) (*Provider, error) {
	if cfg.Name == "" {
		return nil, errors.New("cloud: Config.Name is required")
	}
	if len(cfg.Types) == 0 {
		return nil, errors.New("cloud: at least one instance type is required")
	}
	if cfg.ProvisionLatency == nil {
		cfg.ProvisionLatency = stats.Constant{}
	}
	if cfg.TerminateLatency == nil {
		cfg.TerminateLatency = stats.Constant{}
	}
	p := &Provider{
		eng:       eng,
		cfg:       cfg,
		rng:       sim.NewRNG(cfg.Seed, "cloud/"+cfg.Name),
		types:     make(map[string]InstanceType),
		markets:   make(map[string]*stats.MarketPrice),
		images:    make(map[string]bool),
		leases:    make(map[string]*Instance),
		UsedGauge: metrics.NewGauge("cloud/" + cfg.Name + "/used"),
	}
	for _, it := range cfg.Types {
		if it.Price < 0 {
			return nil, fmt.Errorf("cloud: instance type %q has negative price", it.Name)
		}
		if it.SpeedFactor <= 0 {
			it.SpeedFactor = 1.0
		}
		p.types[it.Name] = it
	}
	if cfg.Market != nil {
		if cfg.Market.Tick <= 0 {
			cfg.Market.Tick = sim.Seconds(60)
		}
		p.cfg = cfg
		for name, it := range p.types {
			m := stats.NewMarketPrice(it.Price, cfg.Market.Volatility, cfg.Market.Reversion,
				it.Price*cfg.Market.Floor, p.rng.Fork("market/"+name))
			p.markets[name] = m
		}
	}
	return p, nil
}

// advanceMarkets steps every market price forward to the present. Prices
// move lazily — one Step per elapsed tick since the last advance — so no
// periodic event keeps the simulation alive artificially (while spot
// leases are live, the revocation watch advances the markets tick by
// tick instead). The step count per call is bounded; extremely long idle
// gaps advance by the cap, which preserves the stationary distribution.
func (p *Provider) advanceMarkets() {
	if p.cfg.Market == nil {
		return
	}
	now := p.eng.Now()
	steps := int((now - p.marketAt) / p.cfg.Market.Tick)
	const maxSteps = 4096
	if steps > maxSteps {
		steps = maxSteps
	}
	if steps <= 0 {
		return
	}
	p.marketAt = now
	for i := 0; i < steps; i++ {
		for _, name := range p.typeNames() {
			p.markets[name].Step()
		}
	}
}

// typeNames returns instance type names in stable order (market stepping
// must be deterministic).
func (p *Provider) typeNames() []string {
	if p.namesCache == nil {
		for name := range p.types {
			p.namesCache = append(p.namesCache, name)
		}
		sort.Strings(p.namesCache)
	}
	return p.namesCache
}

// Name returns the provider name.
func (p *Provider) Name() string { return p.cfg.Name }

// Billing returns the billing model.
func (p *Provider) Billing() Billing { return p.cfg.Billing }

// RegisterImage uploads a framework disk image to the provider (paper
// §3.5: images are saved in the clouds before any bursting).
func (p *Provider) RegisterImage(name string) { p.images[name] = true }

// Active returns the number of pending+running instances.
func (p *Provider) Active() int { return p.active }

// MarketPriced reports whether the type's quotes move with the
// simulated spot market (false under fixed on-demand pricing, where a
// spot lease can never be revoked and carries no expected discount).
func (p *Provider) MarketPriced(typeName string) bool {
	_, ok := p.markets[typeName]
	return ok
}

// LeaseCount returns the number of tracked (pending+running) leases.
// Settled leases are pruned, so in a quiesced provider this is zero.
func (p *Provider) LeaseCount() int { return len(p.leases) }

// SetOnRevoke installs the revocation callback. It fires synchronously
// inside the market tick that revokes a spot lease, after the partial
// charge has settled, so the holder can detach the VM and requeue work.
func (p *Provider) SetOnRevoke(fn func(*Instance)) { p.onRevoke = fn }

// priceOf returns the current price of a known instance type: the
// market price when market pricing is enabled, the fixed on-demand
// price otherwise.
func (p *Provider) priceOf(typeName string) float64 {
	if m, ok := p.markets[typeName]; ok {
		p.advanceMarkets()
		return m.Current()
	}
	return p.types[typeName].Price
}

// Quote returns the current price (units per VM-second) for an instance
// type. This is the "current market VM price" request in the paper's
// Algorithm 1.
func (p *Provider) Quote(typeName string) (float64, error) {
	if _, ok := p.types[typeName]; !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownType, typeName)
	}
	return p.priceOf(typeName), nil
}

// Launch leases a new on-demand instance with the given image. The
// completion fires after the provisioning latency with the running
// instance, or synchronously with an error (unknown type, missing
// image, quota) or after the latency with ErrLaunchFailed when failure
// injection strikes.
func (p *Provider) Launch(typeName, image string, done func(*Instance, error)) {
	p.launch(typeName, image, false, 0, done)
}

// LaunchSpot leases a preemptible instance at the given bid (units per
// VM-second). A bid below the current quote fails synchronously with
// ErrOutbid; a request the market outbids during provisioning is
// cancelled (ErrOutbid, nothing billed); a running spot lease is
// revoked on the market tick whose price first exceeds the bid, with
// the partial charge settled at PriceAtLaunch and the OnRevoke callback
// fired.
func (p *Provider) LaunchSpot(typeName, image string, bid float64, done func(*Instance, error)) {
	p.launch(typeName, image, true, bid, done)
}

func (p *Provider) launch(typeName, image string, spot bool, bid float64, done func(*Instance, error)) {
	if done == nil {
		panic("cloud: Launch with nil completion")
	}
	it, ok := p.types[typeName]
	if !ok {
		done(nil, fmt.Errorf("%w: %q", ErrUnknownType, typeName))
		return
	}
	if !p.images[image] {
		done(nil, fmt.Errorf("%w: %q", ErrNoImage, image))
		return
	}
	if p.cfg.Quota > 0 && p.active >= p.cfg.Quota {
		done(nil, ErrQuota)
		return
	}
	if spot {
		if price := p.priceOf(typeName); bid < price {
			done(nil, fmt.Errorf("%w: bid %g < %g for %q", ErrOutbid, bid, price, typeName))
			return
		}
	}
	inst := &Instance{
		ID:          sim.PaddedID(p.cfg.Name+"-i", p.nextID, 4),
		Provider:    p.cfg.Name,
		Type:        typeName,
		Image:       image,
		Shape:       it.Shape,
		SpeedFactor: it.SpeedFactor,
		State:       InstancePending,
		Spot:        spot,
		Bid:         bid,
	}
	p.nextID++
	inst.slot = len(p.live)
	p.live = append(p.live, inst)
	p.leases[inst.ID] = inst
	p.active++
	p.UsedGauge.Add(p.eng.Now(), 1)

	lat := sim.Seconds(p.cfg.ProvisionLatency.Sample(p.rng))
	failed := p.cfg.FailureProb > 0 && p.rng.Float64() < p.cfg.FailureProb
	p.eng.Schedule(lat, func() {
		if failed {
			p.drop(inst)
			p.Failures.Inc()
			done(nil, ErrLaunchFailed)
			return
		}
		// The price locks at launch completion, not at request time:
		// under market pricing the market moves during the provisioning
		// latency, and billing at the stale request-time quote would
		// diverge from every quote observed once the VM exists.
		price := p.priceOf(inst.Type)
		if inst.Spot && price > inst.Bid {
			// Outbid while provisioning: the request is cancelled
			// before the instance ever runs; nothing is billed and it
			// does not count as a revocation (it never held capacity).
			p.drop(inst)
			done(nil, fmt.Errorf("%w: outbid at launch (%g > %g)", ErrOutbid, price, inst.Bid))
			return
		}
		inst.State = InstanceRunning
		inst.LaunchedAt = p.eng.Now()
		inst.PriceAtLaunch = price
		p.Launches.Inc()
		if inst.Spot {
			p.spotRun = append(p.spotRun, inst)
			p.ensureSpotWatch()
		}
		done(inst, nil)
	})
}

// drop removes a never-ran lease (failed or outbid during provisioning)
// and releases its capacity.
func (p *Provider) drop(inst *Instance) {
	inst.State = InstanceTerminated
	p.active--
	p.UsedGauge.Add(p.eng.Now(), -1)
	p.prune(inst)
}

// prune stops tracking a settled lease: it leaves the lease table, and
// the last lease of the live slice moves into its slot.
func (p *Provider) prune(inst *Instance) {
	delete(p.leases, inst.ID)
	i, last := inst.slot, len(p.live)-1
	p.live[i] = p.live[last]
	p.live[i].slot = i
	p.live[last] = nil
	p.live = p.live[:last]
}

// Terminate stops a lease. The completion receives the final charge. If
// the lease is revoked while the terminate request is in flight, the
// revocation settles the charge and the completion reports it without
// settling twice.
func (p *Provider) Terminate(id string, done func(charge float64, err error)) {
	if done == nil {
		panic("cloud: Terminate with nil completion")
	}
	inst, ok := p.leases[id]
	if !ok {
		done(0, fmt.Errorf("%w: %s", ErrNotFound, id))
		return
	}
	if inst.State != InstanceRunning {
		done(0, fmt.Errorf("%w: %s is not running", ErrBadState, id))
		return
	}
	lat := sim.Seconds(p.cfg.TerminateLatency.Sample(p.rng))
	p.eng.Schedule(lat, func() {
		if inst.State != InstanceRunning {
			done(inst.Charge, nil)
			return
		}
		p.settle(inst)
		done(inst.Charge, nil)
	})
}

// settle finalizes a running lease at the present time: final charge,
// spend aggregates, capacity release and lease-table pruning.
func (p *Provider) settle(inst *Instance) {
	now := p.eng.Now()
	inst.State = InstanceTerminated
	inst.TerminatedAt = now
	inst.Charge = p.bill(inst)
	p.TotalSpend += inst.Charge
	if inst.Spot {
		p.SpotSpend += inst.Charge
		p.dropSpotRun(inst.ID)
	}
	p.active--
	p.UsedGauge.Add(now, -1)
	p.prune(inst)
}

// dropSpotRun removes a lease from the running-spot order.
func (p *Provider) dropSpotRun(id string) {
	for i, inst := range p.spotRun {
		if inst.ID == id {
			p.spotRun = append(p.spotRun[:i], p.spotRun[i+1:]...)
			return
		}
	}
}

// ensureSpotWatch schedules the market-tick revocation check. The watch
// lives only while running spot leases exist, so runs without spot
// activity schedule no extra events (and stay event-for-event identical
// to builds without this machinery).
func (p *Provider) ensureSpotWatch() {
	if p.watchOn || p.cfg.Market == nil || len(p.spotRun) == 0 {
		return
	}
	p.watchOn = true
	p.eng.Schedule(p.cfg.Market.Tick, p.spotWatchTick)
}

// spotWatchTick advances the markets one tick and revokes every running
// spot lease whose bid the new price exceeds, in launch order.
func (p *Provider) spotWatchTick() {
	p.watchOn = false
	p.advanceMarkets()
	p.RevokeOutbid()
	p.ensureSpotWatch()
}

// RevokeOutbid revokes every running spot lease whose bid the current
// market price exceeds, in launch order, and returns how many it
// revoked. The market watch calls this on its own tick; chaos injection
// calls it right after ShockPrices so a price shock's revocations land
// at the shock instant rather than on the next watch tick.
func (p *Provider) RevokeOutbid() int {
	// Collect first: revocation callbacks re-enter the provider
	// (replacement launches) and mutate spotRun.
	var revoked []*Instance
	for _, inst := range p.spotRun {
		if m := p.markets[inst.Type]; m != nil && m.Current() > inst.Bid {
			revoked = append(revoked, inst)
		}
	}
	for _, inst := range revoked {
		p.revoke(inst)
	}
	return len(revoked)
}

// ShockPrices multiplies every market price by factor — an
// instantaneous repricing of the provider's whole spot market (chaos
// injection). Fixed-price providers are unaffected. Markets are first
// advanced to the present so the shock applies on top of the current
// price; shocked prices mean-revert toward base on subsequent ticks,
// and the per-type floors still apply. Callers that want the shock's
// revocations to fire immediately follow up with RevokeOutbid.
func (p *Provider) ShockPrices(factor float64) {
	if p.cfg.Market == nil {
		return
	}
	p.advanceMarkets()
	for _, name := range p.typeNames() {
		p.markets[name].Shock(factor)
	}
}

// Lease returns a tracked (pending or running) lease by ID. Settled
// leases are pruned and report false.
func (p *Provider) Lease(id string) (*Instance, bool) {
	inst, ok := p.leases[id]
	return inst, ok
}

// RunningSpotIDs returns the IDs of running spot leases in launch order
// (the order the market watch considers them) — the target set for
// chaos revocation storms.
func (p *Provider) RunningSpotIDs() []string {
	ids := make([]string, 0, len(p.spotRun))
	for _, inst := range p.spotRun {
		ids = append(ids, inst.ID)
	}
	return ids
}

// Audit checks the provider's internal conservation invariants: the
// active count, used gauge, quota, lease-table states and slots, the
// running-spot order, and spend aggregates must agree. It returns the
// first violation found, or nil. The platform Auditor calls this at
// every audit barrier; it walks the live slice, not the lease table.
func (p *Provider) Audit() error {
	if p.active != len(p.leases) {
		return fmt.Errorf("cloud %s: active=%d but %d tracked leases", p.cfg.Name, p.active, len(p.leases))
	}
	if len(p.live) != len(p.leases) {
		return fmt.Errorf("cloud %s: %d leases in the live slice but %d in the lease table", p.cfg.Name, len(p.live), len(p.leases))
	}
	if g := p.UsedGauge.Value(); g != p.active {
		return fmt.Errorf("cloud %s: used gauge %d disagrees with active %d", p.cfg.Name, g, p.active)
	}
	if p.cfg.Quota > 0 && p.active > p.cfg.Quota {
		return fmt.Errorf("cloud %s: active=%d exceeds quota %d", p.cfg.Name, p.active, p.cfg.Quota)
	}
	if p.TotalSpend < 0 || p.SpotSpend < 0 || p.SpotSpend > p.TotalSpend+1e-9 {
		return fmt.Errorf("cloud %s: spend aggregates inconsistent (total=%g spot=%g)", p.cfg.Name, p.TotalSpend, p.SpotSpend)
	}
	// Of the leases that violate, report the one with the smallest ID,
	// so the report is deterministic without sorting the table.
	tracked := func(inst *Instance) bool {
		return inst.State == InstancePending || inst.State == InstanceRunning
	}
	var bad *Instance
	for i, inst := range p.live {
		if inst.slot != i {
			return fmt.Errorf("cloud %s: lease %s sits at slot %d but records slot %d", p.cfg.Name, inst.ID, i, inst.slot)
		}
		if (bad == nil || inst.ID < bad.ID) && (!tracked(inst) || inst.Charge != 0) {
			bad = inst
		}
	}
	if bad != nil {
		if !tracked(bad) {
			return fmt.Errorf("cloud %s: tracked lease %s is %v", p.cfg.Name, bad.ID, bad.State)
		}
		return fmt.Errorf("cloud %s: unsettled lease %s carries charge %g", p.cfg.Name, bad.ID, bad.Charge)
	}
	for _, inst := range p.spotRun {
		if !inst.Spot || inst.State != InstanceRunning {
			return fmt.Errorf("cloud %s: spot-run entry %s is not a running spot lease", p.cfg.Name, inst.ID)
		}
		if _, ok := p.leases[inst.ID]; !ok {
			return fmt.Errorf("cloud %s: spot-run entry %s missing from lease table", p.cfg.Name, inst.ID)
		}
		if m, ok := p.markets[inst.Type]; ok && inst.PriceAtLaunch > inst.Bid && m != nil {
			return fmt.Errorf("cloud %s: running spot lease %s launched above its bid (%g > %g)",
				p.cfg.Name, inst.ID, inst.PriceAtLaunch, inst.Bid)
		}
	}
	return nil
}

// Revoke preempts a running spot lease immediately, as if the market
// had crossed its bid — the failure-injection entry point mirroring
// what the market watch does on a crossing tick.
func (p *Provider) Revoke(id string) error {
	inst, ok := p.leases[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if inst.State != InstanceRunning || !inst.Spot {
		return fmt.Errorf("%w: %s is not a running spot lease", ErrBadState, id)
	}
	p.revoke(inst)
	return nil
}

// revoke preempts a running spot lease: the partial charge settles at
// PriceAtLaunch for the consumed VM-seconds, capacity frees, and the
// OnRevoke callback lets the platform requeue the lost work.
func (p *Provider) revoke(inst *Instance) {
	inst.Revoked = true
	p.settle(inst)
	p.Revocations.Inc()
	if p.onRevoke != nil {
		p.onRevoke(inst)
	}
}

// billedHours returns the whole hours charged for a duration under
// per-hour billing: any started hour bills in full, but a duration
// landing within float noise above an exact hour multiple must not buy
// an extra whole hour (the tolerance, 1e-9 hours ≈ 3.6 µs, is far
// below the per-second billing resolution).
func billedHours(secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	hours := secs / 3600
	nearest := math.Round(hours)
	if nearest > 0 && math.Abs(hours-nearest) <= 1e-9*nearest {
		return nearest
	}
	return math.Ceil(hours)
}

// charge prices a duration at a locked per-VM-second rate under the
// provider's billing model — the one place per-hour rounding happens.
func (p *Provider) charge(secs, price float64) float64 {
	if secs < 0 {
		secs = 0
	}
	if p.cfg.Billing == BillPerHour {
		return billedHours(secs) * 3600 * price
	}
	return secs * price
}

// bill computes the lease charge under the provider's billing model.
func (p *Provider) bill(inst *Instance) float64 {
	return p.charge(sim.ToSeconds(inst.TerminatedAt-inst.LaunchedAt), inst.PriceAtLaunch)
}

// CostIfRunFor returns what a lease of the given type would cost for a
// duration, at current quotes — the estimate Algorithm 1 compares against
// VC bids.
func (p *Provider) CostIfRunFor(typeName string, d sim.Time) (float64, error) {
	price, err := p.Quote(typeName)
	if err != nil {
		return 0, err
	}
	return p.charge(sim.ToSeconds(d), price), nil
}
