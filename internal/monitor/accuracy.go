package monitor

import (
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// The Fig 8a testbed mirrors the paper's setup: a heavily loaded back-end
// and millisecond-granularity monitoring.
const (
	// accuracyInterval is the monitoring period.
	accuracyInterval = 20 * time.Millisecond
	// oscPeriod is the square-wave period of the true thread count.
	oscPeriod = 250 * time.Millisecond
	// baseThreads and amplitude shape the square wave.
	baseThreads, amplitude = 10, 40
	// loadWorkers is the CPU load on the back-end (what delays the
	// socket-based daemons).
	loadWorkers = 8
)

// AccuracyConfig describes the Fig 8a experiment: a front-end samples the
// thread count of one loaded back-end whose true value oscillates.
type AccuracyConfig struct {
	Scheme Scheme
	// Duration is the observation window.
	Duration time.Duration
	// ServiceOptions opens the run: registry, fault plan, calibration.
	runtime.ServiceOptions
}

// DefaultAccuracyConfig returns a two-second Fig 8a run.
func DefaultAccuracyConfig(scheme Scheme) AccuracyConfig {
	return AccuracyConfig{
		Scheme:   scheme,
		Duration: 2 * time.Second,
	}
}

// SamplePoint is one accuracy observation.
type SamplePoint struct {
	At       sim.Time
	Reported int
	Actual   int
}

// AccuracyResult is the outcome of the Fig 8a experiment.
type AccuracyResult struct {
	Scheme  Scheme
	Samples []SamplePoint
}

// MeanAbsDeviation returns the mean |reported - actual| over the run.
func (r AccuracyResult) MeanAbsDeviation() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range r.Samples {
		d := s.Reported - s.Actual
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / float64(len(r.Samples))
}

// MaxAbsDeviation returns the worst |reported - actual|.
func (r AccuracyResult) MaxAbsDeviation() int {
	max := 0
	for _, s := range r.Samples {
		d := s.Reported - s.Actual
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Accuracy runs the Fig 8a experiment for one scheme.
func Accuracy(cfg AccuracyConfig) (AccuracyResult, error) {
	env := cfg.NewEnv()
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, cfg.Fabric())
	front := cluster.NewNode(env, 0, 2, 1<<30)
	back := cluster.NewNode(env, 1, 2, 1<<30)
	st := NewStation(cfg.Scheme, nw, front, []*cluster.Node{back}, accuracyInterval)
	st.Start()

	// CPU pressure on the back-end: this is what starves the socket-based
	// monitoring daemons.
	back.SpawnLoad(loadWorkers, 5*time.Millisecond, time.Millisecond)

	// The true thread count follows a square wave on top of the load
	// workers.
	env.GoDaemon("oscillator", func(p *sim.Proc) {
		high := false
		for {
			v := loadWorkers + baseThreads
			if high {
				v += amplitude
			}
			back.SetThreads(v)
			high = !high
			p.Sleep(oscPeriod / 2)
		}
	})

	res := AccuracyResult{Scheme: cfg.Scheme}
	env.GoDaemon("sampler", func(p *sim.Proc) {
		// Give async pumps one interval of lead time before judging them.
		p.Sleep(accuracyInterval)
		for {
			snap := st.Sample(p, 0)
			res.Samples = append(res.Samples, SamplePoint{
				At:       p.Now(),
				Reported: snap.Threads,
				Actual:   back.Stats().Threads,
			})
			p.Sleep(accuracyInterval)
		}
	})
	if err := env.RunUntil(sim.Time(cfg.Duration)); err != nil {
		return res, err
	}
	return res, nil
}
