package core

// PollControllers puts p's batch Application Controllers on the
// per-interval poll, the oracle the event-driven discipline is tested
// against. Call it before the first dispatch.
func PollControllers(p *Platform) { p.pollControllers = true }
