package runtime

import (
	"ngdc/internal/faults"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

// ServiceOptions is the shared head of every service's Options struct:
// the cross-cutting observability and fault-injection hooks, carried in
// one place instead of threaded per call site. Embed it (by value) in a
// service's Options and resolve it once at construction with Bind.
// Simulated services always run on the environment of the network they
// are built over; the live RealRuntime hosts services through
// internal/serve instead.
type ServiceOptions struct {
	// Trace, when non-nil, is attached to the environment before the
	// service is built, so the layers it constructs publish their
	// counters there. nil keeps whatever registry is already attached.
	Trace *trace.Registry
	// Faults, when non-nil, is installed on the environment before the
	// service is built. Like faults.Install, it must reach the
	// environment before verbs devices attach (i.e. set it on the first
	// layer built over the environment, typically the framework or the
	// experiment runner). nil keeps any plan already installed.
	Faults *faults.Plan
}

// Bind resolves the options against env, the environment the service's
// network runs on: it attaches Trace and installs Faults.
func (o ServiceOptions) Bind(env *sim.Env) {
	if o.Trace != nil {
		trace.AttachRegistry(env, o.Trace)
	}
	if o.Faults != nil {
		faults.Install(env, o.Faults)
	}
}
