package monitor

import (
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// AccuracyConfig describes the Fig 8a experiment: a front-end samples the
// thread count of one loaded back-end whose true value oscillates.
type AccuracyConfig struct {
	Scheme Scheme
	// Interval is the monitoring period.
	Interval time.Duration
	// Duration is the observation window.
	Duration time.Duration
	// OscPeriod is the square-wave period of the true thread count.
	OscPeriod time.Duration
	// BaseThreads and Amplitude shape the square wave.
	BaseThreads, Amplitude int
	// LoadWorkers is the CPU load on the back-end (what delays the
	// socket-based daemons).
	LoadWorkers int
	Seed        int64
	// ServiceOptions opens the run: registry, fault plan, calibration.
	runtime.ServiceOptions
}

// DefaultAccuracyConfig mirrors the paper's setup: a heavily loaded
// back-end and millisecond-granularity monitoring.
func DefaultAccuracyConfig(scheme Scheme) AccuracyConfig {
	return AccuracyConfig{
		Scheme:      scheme,
		Interval:    20 * time.Millisecond,
		Duration:    2 * time.Second,
		OscPeriod:   250 * time.Millisecond,
		BaseThreads: 10,
		Amplitude:   40,
		LoadWorkers: 8,
		Seed:        1,
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
	env := cfg.NewEnv(cfg.Seed)
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, cfg.Fabric())
	front := cluster.NewNode(env, 0, 2, 1<<30)
	back := cluster.NewNode(env, 1, 2, 1<<30)
	st := NewStation(cfg.Scheme, nw, front, []*cluster.Node{back}, cfg.Interval)
	st.Start()

	// CPU pressure on the back-end: this is what starves the socket-based
	// monitoring daemons.
	back.SpawnLoad(cfg.LoadWorkers, 5*time.Millisecond, time.Millisecond)

	// The true thread count follows a square wave on top of the load
	// workers.
	env.GoDaemon("oscillator", func(p *sim.Proc) {
		high := false
		for {
			v := cfg.LoadWorkers + cfg.BaseThreads
			if high {
				v += cfg.Amplitude
			}
			back.SetThreads(v)
			high = !high
			p.Sleep(cfg.OscPeriod / 2)
		}
	})

	res := AccuracyResult{Scheme: cfg.Scheme}
	env.GoDaemon("sampler", func(p *sim.Proc) {
		// Give async pumps one interval of lead time before judging them.
		p.Sleep(cfg.Interval)
		for {
			snap := st.Sample(p, 0)
			res.Samples = append(res.Samples, SamplePoint{
				At:       p.Now(),
				Reported: snap.Threads,
				Actual:   back.Stats().Threads,
			})
			p.Sleep(cfg.Interval)
		}
	})
	if err := env.RunUntil(sim.Time(cfg.Duration)); err != nil {
		return res, err
	}
	return res, nil
}
