package sim

// Await is how a process runs an event chain as a blocking call: it
// starts the chain, whose last step calls Done, then calls Wait. A chain
// that ends inside the call that started it — a Device.Issue that fails
// validation completes inline — has called Done before Wait, which then
// returns at once: the process does not park, and nothing calls Continue
// outside a callback. Otherwise the process parks once, and Done hands it
// back with Env.Continue at the instant and inside the event of the last
// step, where the blocking code the chain replaces would have returned.
// The zero value is ready; an Await serves one chain at a time.
type Await struct {
	p    *Proc // parked in Wait
	done bool  // Done ran; Wait has not yet returned
}

// Wait returns once the chain started since the last Wait has called
// Done, parking p until then. reason describes the wait in deadlock
// reports; pass a preformatted string so waiting allocates nothing.
func (a *Await) Wait(p *Proc, reason string) {
	if !a.done {
		a.p = p
		p.Park(reason)
		a.p = nil
	}
	a.done = false
}

// Done is the chain's last step: it ends the wait, handing a parked
// process back as soon as the running callback returns.
func (a *Await) Done() {
	a.done = true
	if p := a.p; p != nil {
		p.env.Continue(p)
	}
}
