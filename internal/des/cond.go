package des

// Cond is a condition variable for event-driven "blocking" code.
//
// Simulated threads cannot literally block (they are events), so waiting is
// expressed as a continuation: Wait(actor, label, fn) parks the actor until
// Signal or Broadcast schedules fn. While parked, the actor is registered
// with the Sim as blocked under the label, which the stuck-thread oracles
// inspect. This mirrors how the paper's HBase example hangs forever at
// waitForSafePoint: the condition is simply never signalled again.
type Cond struct {
	sim     *Sim
	label   string
	waiters []waiter
}

type waiter struct {
	actor string
	fn    func()
}

// NewCond creates a condition variable. The label names what waiters are
// blocked on (e.g. "waitForSafePoint") and is what oracles match against.
func NewCond(sim *Sim, label string) *Cond {
	return &Cond{sim: sim, label: label}
}

// Wait parks the current step of actor until a Signal/Broadcast. fn runs on
// the actor when woken.
func (c *Cond) Wait(actor string, fn func()) {
	c.waiters = append(c.waiters, waiter{actor: actor, fn: fn})
	c.sim.markBlocked(actor, c.label)
}

func (c *Cond) wake(w waiter) {
	c.sim.unmarkBlocked(w.actor)
	c.sim.Go(w.actor, w.fn)
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.wake(w)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		c.wake(w)
	}
}
