package storm

import (
	"fmt"

	"ngdc/internal/cluster"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// The Fig 3b deployment and query: records spread over four data
// nodes, and a one-in-three selection.
const (
	compareDataNodes = 4
	compareModulo    = 3
)

// Compare runs the Fig 3b query over records on fresh STORM and
// STORM-DDSS deployments and returns both results — one Fig 3b data
// point. Both runs are opened with o.
func Compare(records int, o runtime.ServiceOptions) (tcp, dd Result, err error) {
	tcp, err = measure(OverTCP, records, o)
	if err != nil {
		return
	}
	dd, err = measure(OverDDSS, records, o)
	return
}

func measure(tr Transport, records int, o runtime.ServiceOptions) (Result, error) {
	env := o.NewEnv()
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, o.Fabric())
	client := cluster.NewNode(env, 0, 2, 1<<31)
	var dns []*cluster.Node
	for i := 1; i <= compareDataNodes; i++ {
		dns = append(dns, cluster.NewNode(env, i, 2, 1<<31))
	}
	c := New(nw, dns, Options{Transport: tr, Client: client})
	var res Result
	var runErr error
	env.Go("driver", func(p *sim.Proc) {
		if err := c.Load(p, records); err != nil {
			runErr = err
			return
		}
		res, runErr = c.Query(p, Selector{Modulo: compareModulo})
	})
	if err := env.Run(); err != nil {
		return res, err
	}
	if runErr != nil {
		return res, fmt.Errorf("storm: measure: %w", runErr)
	}
	return res, nil
}
