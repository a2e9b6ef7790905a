package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/pool"
	"repro/internal/serve"
	"repro/serveclient"
)

// rungs are the ladder of public calls one spec is timed through, from
// the bare loop body to the daemon. Each layer's self time is the
// paired difference between adjacent rungs of one round.
var rungs = []string{"serial", "core", "pool", "serve", "http", "daemon"}

// rungLayer names the layer metric each rung after the first prices.
var rungLayer = map[string]string{
	"core":   "core.self_us",
	"pool":   "pool.self_us",
	"serve":  "serve.self_us",
	"http":   "http.self_us",
	"daemon": "daemon.self_us",
}

// ladder holds one persistent instance of every rung's entry point.
type ladder struct {
	eng    *core.Engine
	pool   *pool.Executor
	srv    *serve.Server
	hsrv   *http.Server
	served chan error
	hc     *http.Client
	local  *serveclient.Client
	remote *serveclient.Client
}

func newLadder(remote *serveclient.Client) (*ladder, error) {
	eng, err := core.NewEngine(nproc)
	if err != nil {
		return nil, err
	}
	l := &ladder{eng: eng, remote: remote}
	if l.pool, err = pool.New(nproc); err != nil {
		l.close()
		return nil, err
	}
	if l.srv, err = serve.New(serve.Options{Procs: nproc}); err != nil {
		l.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.close()
		return nil, err
	}
	l.hsrv = &http.Server{Handler: serve.NewHandler(l.srv, "perfbench ladder")}
	l.served = make(chan error, 1)
	go func() { l.served <- l.hsrv.Serve(ln) }()
	l.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	l.local = serveclient.New("http://"+ln.Addr().String(), l.hc)
	return l, nil
}

// close stops every rung's server and waits for the HTTP server's
// goroutine to return.
func (l *ladder) close() {
	if l.hsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = l.hsrv.Shutdown(ctx)
		cancel()
		<-l.served
		l.hc.CloseIdleConnections()
	}
	if l.srv != nil {
		l.srv.Close()
	}
	if l.pool != nil {
		l.pool.Close()
	}
	l.eng.Close()
}

// rungResult is what each rung reports for checking.
type rungResult struct {
	checksum   float64
	iterations int64
	scheduler  string
	// build and body split the serial rung's time.
	build, body time.Duration
}

// call runs spec once through rung.
func (l *ladder) call(ctx context.Context, rung string, s job.Spec) (rungResult, error) {
	switch rung {
	case "serial":
		ref, build, body, err := serialRun(s)
		return rungResult{checksum: ref.checksum, iterations: ref.iterations, scheduler: s.SchedulerName(), build: build, body: body}, err
	case "core", "pool":
		r, err := job.Build(s)
		if err != nil {
			return rungResult{}, err
		}
		cfg, err := s.Config()
		if err != nil {
			return rungResult{}, err
		}
		var st core.Stats
		if rung == "core" {
			var res core.Result
			res, err = l.eng.Execute(cfg, r.Phases, r.N, r.Body)
			st = res.Stats
			if err == nil && res.Panic != nil {
				err = fmt.Errorf("loop body panicked: %v", res.Panic)
			}
		} else {
			st, err = l.pool.SubmitPhases(ctx, cfg, r.Phases, r.N, r.Body)
		}
		return rungResult{checksum: r.Checksum(), iterations: st.Iterations, scheduler: cfg.Spec.Name}, err
	case "serve":
		res, err := l.srv.Submit(ctx, s)
		return rungResult{checksum: res.Checksum, iterations: res.Stats.Iterations, scheduler: res.Scheduler}, err
	}
	cl := l.local
	if rung == "daemon" {
		cl = l.remote
	}
	res, err := cl.Submit(ctx, s)
	return rungResult{checksum: res.Checksum, iterations: res.Iterations, scheduler: res.Scheduler}, err
}

// ladderRound draws one round: the next spec of the mix, as the
// "ladder" tenant, and the order in which the rungs run it.
func ladderRound(rng *rand.Rand, mix []job.Spec) (job.Spec, []int) {
	s := mix[rng.Intn(len(mix))]
	s.Tenant = "ladder"
	return s, rng.Perm(len(rungs))
}

// runLadder times rounds of the ladder until d has passed. Each round
// takes the next spec of the workload's mix (as the "ladder" tenant,
// which has no quota) through every rung in a seeded random order, so
// no rung always runs first or on a cold cache.
func (env *serveEnv) runLadder(c config, o *outcome, d time.Duration) error {
	l, err := newLadder(env.d.client)
	if err != nil {
		return err
	}
	defer l.close()
	rng := c.rng(4)
	ctx := context.Background()
	self := map[string][]float64{}
	var build, body []float64
	deadline := time.Now().Add(d)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		s, order := ladderRound(rng, env.mix)
		trace := uint64(1)<<40 | uint64(round)
		root := o.spans.reserve()
		took := make(map[string]float64, len(rungs))
		rs := time.Now()
		for _, i := range order {
			rung := rungs[i]
			t0 := time.Now()
			res, err := l.call(ctx, rung, s)
			t1 := time.Now()
			o.spans.add(trace, root, "rung."+rung, t0, t1)
			took[rung] = t1.Sub(t0).Seconds() * 1e6
			o.attempted++
			msg := ""
			if err != nil {
				var shed *serveclient.ShedError
				if errors.As(err, &shed) {
					return fmt.Errorf("ladder rung %s was shed: %w", rung, err)
				}
				msg = err.Error()
			} else {
				msg = env.check(s, res.checksum, res.iterations, res.scheduler)
			}
			if msg != "" {
				o.failed++
				if len(o.problems) < 8 {
					o.problems = append(o.problems, "ladder rung "+rung+": "+msg)
				}
			}
			if rung == "serial" {
				build = append(build, res.build.Seconds()*1e6)
				body = append(body, res.body.Seconds()*1e3)
			}
		}
		o.spans.addID(root, trace, 0, "ladder.round "+s.Kernel+"/"+s.SchedulerName(), rs, time.Now())
		for i := 1; i < len(rungs); i++ {
			self[rungs[i]] = append(self[rungs[i]], took[rungs[i]]-took[rungs[i-1]])
		}
	}
	o.set("job.build_us", median(build))
	o.set("kernels.serial_ms", median(body))
	for rung, name := range rungLayer {
		o.set(name, median(self[rung]))
	}
	// The simulator layers are not entered by the serving workloads.
	for _, name := range []string{"kernels.program_s", "sim.run_s", "sim.ns_per_sync_op", "sim.sync_ops", "sim.cache_accesses", "sim.steals"} {
		o.set(name, 0)
	}
	return nil
}
