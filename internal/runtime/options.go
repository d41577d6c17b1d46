package runtime

import (
	"ngdc/internal/fabric"
	"ngdc/internal/faults"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

// ServiceOptions carries everything that must be decided before a
// simulated run exists: where its counters go, which faults it suffers
// and which interconnect it is calibrated to. It is the only carrier of
// the three — run-level configs embed it, measurement helpers take it
// as their last argument — and NewEnv is the only way to open a run
// with it.
//
// The ordering rule, enforced here and nowhere else: registry, then
// plan, on a fresh environment, before any network, device or NIC is
// built over it. Those layers cache their counter and injector pointers
// at construction, so a registry or plan that arrives later is silently
// missed (a registry attached after the network records no device and
// no NIC) or duplicated (a second Install schedules every event again
// while the fabric keeps the first injector). A service's own Options
// therefore carry none of this: a service is built on an environment
// somebody already opened.
type ServiceOptions struct {
	// Trace, when non-nil, collects the run's observability counters
	// (and may span a sweep of sequential runs).
	Trace *trace.Registry
	// Faults, when non-nil, is the deterministic fault plan the run
	// suffers; the same plan and seed replay byte-for-byte.
	Faults *faults.Plan
	// Params is the fabric calibration; the zero value means
	// fabric.DefaultParams().
	Params fabric.Params
}

// NewEnv opens a run: a fresh environment carrying the registry and the
// fault plan. It takes no seed: the engine draws no random numbers, and
// a model that needs a stream seeds its own. Defer its Shutdown next to
// the call.
func (o ServiceOptions) NewEnv() *sim.Env {
	env := sim.NewEnv(0)
	trace.AttachRegistry(env, o.Trace)
	faults.Install(env, o.Faults)
	return env
}

// Fabric returns the calibration to build the run's network with.
func (o ServiceOptions) Fabric() fabric.Params {
	if o.Params == (fabric.Params{}) {
		return fabric.DefaultParams()
	}
	return o.Params
}
