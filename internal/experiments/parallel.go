package experiments

import (
	"runtime"
	"sync"

	"ngdc/internal/trace"
)

// workers returns the sweep worker count: Options.Parallel when set,
// otherwise GOMAXPROCS.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// sweep runs cell on every input, fanning the runs across a bounded
// pool of worker goroutines, and returns the results in input order.
// Every generator in this package routes its sweep through here: a cell
// is one simulation run (one point of a size × scheme grid), and cells
// of one sweep never share state — each builds its own environment, so
// runs are race-free by construction and each worker drives at most one
// simulation at a time.
//
// Determinism: each result lands in its input's slot, and observability
// counters are collected through a fresh per-cell trace.Registry which
// the barrier folds back into o.Trace in input order (see
// Registry.Fold). Both are therefore independent of worker scheduling:
// tables and trace snapshots are byte-identical for every Parallel
// value, including 1. Errors are also reported in input order — the
// first failing cell by index wins, not the first to fail on the wall
// clock.
func sweep[In, Out any](o Options, inputs []In, cell func(in In, o Options) (Out, error)) ([]Out, error) {
	n := len(inputs)
	workers := min(o.workers(), n)
	var regs []*trace.Registry
	if o.Trace != nil {
		regs = make([]*trace.Registry, n)
	}
	res := make([]Out, n)
	errs := make([]error, n)
	run := func(i int) {
		co := o
		if regs != nil {
			regs[i] = trace.NewRegistry()
			co.Trace = regs[i]
		}
		res[i], errs[i] = cell(inputs[i], co)
	}
	if workers <= 1 {
		for i := range inputs {
			run(i)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					run(i)
				}
			}()
		}
		for i := range inputs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		if regs != nil {
			o.Trace.Fold(regs[i].Snapshot())
		}
	}
	return res, nil
}

// grid runs cell on every (row, col) pair as one sweep, in row-major
// order, and returns the result of rows[r] × cols[c] at res[r][c].
func grid[R, C, Out any](o Options, rows []R, cols []C, cell func(r R, c C, o Options) (Out, error)) ([][]Out, error) {
	type pair struct {
		r R
		c C
	}
	pairs := make([]pair, 0, len(rows)*len(cols))
	for _, r := range rows {
		for _, c := range cols {
			pairs = append(pairs, pair{r, c})
		}
	}
	flat, err := sweep(o, pairs, func(p pair, o Options) (Out, error) { return cell(p.r, p.c, o) })
	if err != nil {
		return nil, err
	}
	res := make([][]Out, len(rows))
	for r := range res {
		res[r], flat = flat[:len(cols):len(cols)], flat[len(cols):]
	}
	return res, nil
}
