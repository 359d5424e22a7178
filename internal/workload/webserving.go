package workload

import (
	"fmt"

	"oversub/internal/epoll"
	"oversub/internal/sched"
	"oversub/internal/sim"
	"oversub/internal/stats"
)

// WebConfig describes the CloudSuite-style web-serving experiment the paper
// mentions alongside memcached ("experiments with other workloads in the
// Cloudsuite benchmarks, such as web serving, confirmed our findings").
// Each request is parsed, runs application logic, performs BackendCalls
// round trips to a backend tier (blocking in epoll each time), renders, and
// responds — so oversubscribed workers sleep and wake several times per
// request.
type WebConfig struct {
	Workers  int
	Cores    int
	VB       bool
	Requests int
	Conns    int
	// BackendCalls is the number of backend round trips per request.
	BackendCalls int
	// BackendRTT is the mean backend service round trip.
	BackendRTT sim.Duration
	// Policy selects the scheduling policy ("" = cfs).
	Policy string
	Seed   uint64
	// Sampler, when non-nil, snapshots scheduler state at its sim-time
	// interval. Observation-only.
	Sampler sched.Sampler `json:"-"`
}

// WebResult reports client-observed service metrics.
type WebResult struct {
	ThroughputOpsSec float64
	Mean             sim.Duration
	P95              sim.Duration
	P99              sim.Duration
	Served           int
	Metrics          sched.Metrics
}

type webRequest struct {
	arrival sim.Time
	conn    int
}

// WebServing runs the web-serving model and returns service metrics.
func WebServing(cfg WebConfig) WebResult {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 10000
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 48
	}
	if cfg.BackendCalls <= 0 {
		cfg.BackendCalls = 2
	}
	if cfg.BackendRTT <= 0 {
		cfg.BackendRTT = 120 * sim.Microsecond
	}

	eng := microEngine(cfg.Seed)
	k := NewMachine(eng, MachineSpec{Cores: cfg.Cores, Feat: sched.Features{VB: cfg.VB}, Policy: cfg.Policy,
		Seed: cfg.Seed, Sampler: cfg.Sampler}).K

	frontPolls := make([]*epoll.Poll, cfg.Workers)
	backPolls := make([]*epoll.Poll, cfg.Workers)
	for i := range frontPolls {
		frontPolls[i] = epoll.New(k)
		backPolls[i] = epoll.New(k)
	}

	var lat stats.Latency
	served := 0
	issued := 0
	rng := eng.Rand().Split()

	parse := 4 * sim.Microsecond
	appLogic := 60 * sim.Microsecond
	render := 25 * sim.Microsecond
	respond := 4 * sim.Microsecond
	rtt := 30 * sim.Microsecond

	var issue func(conn int)
	issue = func(conn int) {
		if issued >= cfg.Requests {
			return
		}
		issued++
		req := &webRequest{conn: conn}
		eng.After(rng.Jitter(rtt/2, 0.2), func() {
			req.arrival = eng.Now()
			frontPolls[conn%cfg.Workers].Post(req)
		})
	}

	complete := func(req *webRequest) {
		lat.Add(eng.Now().Sub(req.arrival))
		served++
		if served == cfg.Requests {
			return
		}
		eng.After(rng.Jitter(rtt/2, 0.2), func() { issue(req.conn) })
	}

	for w := 0; w < cfg.Workers; w++ {
		w := w
		k.Spawn(fmt.Sprintf("web-%d", w), func(t *sched.Thread) {
			for served < cfg.Requests {
				ev := frontPolls[w].Wait(t)
				req, ok := ev.(*webRequest)
				if !ok {
					break
				}
				t.Run(parse)
				t.Run(rng.Jitter(appLogic, 0.4))
				for call := 0; call < cfg.BackendCalls; call++ {
					// Asynchronous backend round trip; the worker blocks on
					// its backend completion queue, as PHP-FPM blocks on a
					// database or cache socket.
					d := rng.Jitter(cfg.BackendRTT, 0.3)
					eng.After(d, func() { backPolls[w].Post(req) })
					backEv := backPolls[w].Wait(t)
					if backEv == nil {
						break
					}
				}
				t.Run(rng.Jitter(render, 0.3))
				t.Run(respond)
				complete(req)
			}
			for _, p := range append(frontPolls, backPolls...) {
				for p.WaitersCount() > 0 {
					p.Post(nil)
				}
			}
		})
	}

	start := eng.Now()
	for c := 0; c < cfg.Conns; c++ {
		issue(c)
	}
	if err := k.RunToCompletion(sim.Time(600 * sim.Second)); err != nil {
		panic(err)
	}
	elapsed := eng.Now().Sub(start)

	res := WebResult{
		Served:  served,
		Mean:    lat.Mean(),
		P95:     lat.Percentile(95),
		P99:     lat.Percentile(99),
		Metrics: k.Metrics,
	}
	if elapsed > 0 {
		res.ThroughputOpsSec = float64(served) / elapsed.Seconds()
	}
	return res
}
