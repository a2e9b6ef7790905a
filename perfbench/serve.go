package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/job"
	"repro/serveclient"
)

// nproc is the host's CPU count: the daemon's -p, the number of client
// goroutines and connections, and every job's procs.
var nproc = runtime.NumCPU()

// daemon is one loopserved process booted from the checkout's build.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	hc     *http.Client
	client *serveclient.Client
	exited chan error
}

// startDaemon boots loopserved on a free loopback port and waits until
// /healthz answers.
func startDaemon(c config, tenants string) (*daemon, error) {
	if c.daemon == "" {
		return nil, errors.New("serve workloads need -daemon (the loopserved binary)")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	// The daemon stops on SIGTERM from stop; -duration and Pdeathsig
	// stop it anyway if this process dies first.
	cmd := exec.Command(c.daemon, "-addr", addr, "-p", strconv.Itoa(nproc),
		"-tenants", tenants, "-duration", (c.duration() + 5*time.Minute).String())
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting loopserved: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	d.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc, DisableCompression: true,
	}}
	d.client = serveclient.New(d.url, d.hc)
	for deadline := time.Now().Add(20 * time.Second); ; {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := d.client.Healthz(ctx)
		cancel()
		if err == nil {
			return d, nil
		}
		select {
		case werr := <-d.exited:
			d.exited <- werr
			return nil, fmt.Errorf("loopserved exited during boot: %v", werr)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("loopserved did not become healthy: %w", err)
		}
	}
}

// peakRSS is the daemon's VmHWM in MB.
func (d *daemon) peakRSS() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// stop sends SIGTERM, waits for the drain, and kills the daemon if it
// has not exited within ten seconds.
func (d *daemon) stop() {
	d.hc.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// reference is the serial result of one kernel+params.
type reference struct {
	checksum   float64
	iterations int64
}

// refKey identifies a job's result: scheduler, procs and tenant do not
// change what a kernel computes.
func refKey(s job.Spec) string { return job.Spec{Kernel: s.Kernel, Params: s.Params}.Canon() }

// serialRun builds the spec with job.Build and runs every iteration on
// this goroutine. It returns the reference and the build and body
// times.
func serialRun(s job.Spec) (reference, time.Duration, time.Duration, error) {
	t0 := time.Now()
	r, err := job.Build(s)
	if err != nil {
		return reference{}, 0, 0, err
	}
	t1 := time.Now()
	var iters int64
	for ph := 0; ph < r.Phases; ph++ {
		n := r.N(ph)
		for i := 0; i < n; i++ {
			r.Body(ph, i)
		}
		iters += int64(n)
	}
	t2 := time.Now()
	return reference{checksum: r.Checksum(), iterations: iters}, t1.Sub(t0), t2.Sub(t1), nil
}

// serveEnv is a booted, warmed daemon plus what the workload checks
// its replies against.
type serveEnv struct {
	d *daemon
	// mix is the seeded job sequence; the load generator cycles it.
	mix  []job.Spec
	refs map[string]reference
}

// check reports why a reply is wrong, or "" when it matches the serial
// reference of its spec.
func (env *serveEnv) check(s job.Spec, checksum float64, iterations int64, scheduler string) string {
	want, ok := env.refs[refKey(s)]
	switch {
	case !ok:
		return "no reference for " + refKey(s)
	case checksum != want.checksum:
		return fmt.Sprintf("%s: checksum %v, serial reference %v", s.Kernel, checksum, want.checksum)
	case iterations != want.iterations:
		return fmt.Sprintf("%s: %d iterations, serial reference %d", s.Kernel, iterations, want.iterations)
	case scheduler != s.SchedulerName():
		return fmt.Sprintf("%s: ran under %s, asked for %s", s.Kernel, scheduler, s.SchedulerName())
	}
	return ""
}

// setupServe computes the serial references, boots the daemon, runs
// every distinct spec once and then warmJobs jobs of the mix in a
// closed loop, so shard creation and first-pass effects stay out of
// the measurement. The setup is repeated setupReps times; the median
// is setup_s and the last daemon is kept.
func setupServe(c config, tenants string, mix []job.Spec, warmJobs int) (*serveEnv, float64, error) {
	var env *serveEnv
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		if env != nil {
			env.d.stop()
		}
		t := time.Now()
		var err error
		env, err = setupServeOnce(c, tenants, mix, warmJobs)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return env, median(times), nil
}

func setupServeOnce(c config, tenants string, mix []job.Spec, warmJobs int) (*serveEnv, error) {
	env := &serveEnv{mix: mix, refs: make(map[string]reference)}
	distinct := map[string]job.Spec{}
	for _, s := range mix {
		distinct[s.Canon()] = s
		if _, ok := env.refs[refKey(s)]; ok {
			continue
		}
		ref, _, _, err := serialRun(s)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", s.Canon(), err)
		}
		env.refs[refKey(s)] = ref
	}
	d, err := startDaemon(c, tenants)
	if err != nil {
		return nil, err
	}
	env.d = d
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ctx := context.Background()
	for _, k := range keys {
		s := distinct[k]
		res, err := d.client.Submit(ctx, s)
		if err == nil {
			if msg := env.check(s, res.Checksum, res.Iterations, res.Scheduler); msg != "" {
				err = errors.New(msg)
			}
		}
		var shed *serveclient.ShedError
		if err != nil && !errors.As(err, &shed) {
			d.stop()
			return nil, fmt.Errorf("warm-up %s: %w", k, err)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, nproc)
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(warmJobs) {
					return
				}
				s := mix[i%int64(len(mix))]
				if s.Tenant == aggressor {
					continue
				}
				if _, err := d.client.Submit(ctx, s); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return env, nil
}

// reply is one request of the load generator.
type reply struct {
	spec int // index into env.mix
	// intended is when the request was due; sent when it went out.
	intended, sent, done time.Time
	res                  serveclient.JobResult
	// shed marks an aggressor quota 429; problem a failure.
	shed    bool
	problem string
	traced  bool
}

// submit sends one request and classifies the outcome.
func (env *serveEnv) submit(ctx context.Context, spans *spanLog, trace uint64, idx int, intended time.Time) reply {
	s := env.mix[idx]
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	r := reply{spec: idx, intended: intended, sent: time.Now(), traced: spans != nil}
	res, err := env.d.client.Submit(rctx, s)
	r.done = time.Now()
	spans.add(trace, 0, "serveclient.Submit "+s.Kernel, r.sent, r.done)
	var shed *serveclient.ShedError
	switch {
	case err == nil:
		r.res = res
		r.problem = env.check(s, res.Checksum, res.Iterations, res.Scheduler)
	case s.Tenant == aggressor && errors.As(err, &shed) && shed.Reason == "quota":
		r.shed = true
	default:
		r.problem = fmt.Sprintf("%s for %s: %v", s.Kernel, s.Tenant, err)
	}
	return r
}

// tracedRequest picks every other request for span recording, so a
// traced run measures its own tracing overhead on the same job mix.
func tracedRequest(trace bool, i int64) bool { return trace && i%2 == 0 }

// closedLoop runs nproc clients, each sending the next job of the mix
// as soon as its previous reply arrives, until the deadline.
func (env *serveEnv) closedLoop(spans *spanLog, trace bool, d time.Duration) ([]reply, time.Time) {
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	per := make([][]reply, nproc)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				i := next.Add(1) - 1
				var rec *spanLog
				if tracedRequest(trace, i) {
					rec = spans
				}
				per[w] = append(per[w], env.submit(ctx, rec, uint64(i)+1, int(i%int64(len(env.mix))), now))
			}
		}(w)
	}
	wg.Wait()
	var all []reply
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all, start
}

// windowedRate splits the timed window into ten equal parts and returns
// the median of their completion rates, so a transient host stall
// moves one part of ten instead of the whole figure.
func windowedRate(ok []reply, start time.Time, window time.Duration) float64 {
	const parts = 10
	counts := make([]float64, parts)
	for _, r := range ok {
		if i := int(r.done.Sub(start) * parts / window); i >= 0 && i < parts {
			counts[i]++
		}
	}
	return median(counts) * parts / window.Seconds()
}

// tally folds replies into the outcome: counts, end-to-end latency
// (from the intended send time) and throughput over the window.
func tally(o *outcome, rs []reply, start time.Time, window time.Duration) (ok []reply) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].intended.Before(rs[j].intended) })
	var lat []float64
	for _, r := range rs {
		o.attempted++
		switch {
		case r.problem != "":
			o.failed++
			if len(o.problems) < 8 {
				o.problems = append(o.problems, r.problem)
			}
		case !r.shed:
			ok = append(ok, r)
			lat = append(lat, r.done.Sub(r.intended).Seconds())
		}
	}
	o.set("jobs_per_s", windowedRate(ok, start, window))
	o.set("latency_p50_ms", 1e3*median(lat))
	o.set("latency_p90_ms", 1e3*windowedQuantile(lat, 0.9))
	o.set("latency_p99_ms", 1e3*windowedQuantile(lat, 0.99))
	o.set("latency_samples", float64(len(lat)))
	return ok
}

// layerStats derives the per-layer metrics the server reports in every
// reply: engine time, affinity, queue wait, and the HTTP share.
func layerStats(o *outcome, all, ok []reply) {
	var engine, wait, httpSelf []float64
	var iters, migrated, steals float64
	for _, r := range ok {
		engine = append(engine, float64(r.res.ElapsedNS)/1e6)
		wait = append(wait, float64(r.res.WaitNS)/1e6)
		httpSelf = append(httpSelf, (r.done.Sub(r.sent).Seconds()*1e9-float64(r.res.WaitNS)-float64(r.res.ElapsedNS))/1e6)
		iters += float64(r.res.Iterations)
		migrated += float64(r.res.MigratedIters)
		steals += float64(r.res.Steals)
	}
	shed := 0
	var tracedLat, plainLat []float64
	for _, r := range all {
		if r.shed {
			shed++
			continue
		}
		if r.problem != "" {
			continue
		}
		if r.traced {
			tracedLat = append(tracedLat, r.done.Sub(r.sent).Seconds())
		} else {
			plainLat = append(plainLat, r.done.Sub(r.sent).Seconds())
		}
	}
	o.set("core.engine_ms_p50", median(engine))
	o.set("core.migrated_share", safeDiv(migrated, iters))
	o.set("core.steals_per_job", safeDiv(steals, float64(len(ok))))
	o.set("serve.queue_wait_ms_p50", median(wait))
	o.set("serve.queue_wait_ms_p99", quantile(wait, 0.99))
	o.set("serve.admitted_count", float64(len(ok)))
	o.set("serve.shed_count", float64(shed))
	o.set("http.self_ms_p50", median(httpSelf))
	o.set("http.self_ms_p99", quantile(httpSelf, 0.99))
	o.set("tracing.overhead_pct", overheadPct(tracedLat, plainLat))
}

// kernelMix is serve-kernels' job sequence: the paper kernels at their
// registry defaults, in blocks of 20 jobs with a fixed composition
// (sor 5, spin-irregular 5, gauss 4, tc-random 4, adjoint 2), of which
// exactly 4 run under GSS and the rest under AFS, so two shards exist.
// The seed shuffles each block and picks which jobs run under GSS and
// which of four seeded graphs each tc-random job closes. Every prefix
// the closed loop consumes therefore carries nearly the same work, and
// the seed moves only the order. Adjoint is the costliest kernel at its
// defaults (about 40 ms on two workers), so it is kept to 2 in 20.
func kernelMix(c config) []job.Spec {
	rng := c.rng(2)
	block := []string{"sor", "sor", "sor", "sor", "sor",
		"spin-irregular", "spin-irregular", "spin-irregular", "spin-irregular", "spin-irregular",
		"gauss", "gauss", "gauss", "gauss", "tc-random", "tc-random", "tc-random", "tc-random",
		"adjoint", "adjoint"}
	blocks := 205
	if c.tiny {
		block = []string{"sor", "sor", "tc-random", "tc-random", "spin-irregular"}
		blocks = 13
	}
	graphs := []int64{rng.Int63n(1 << 30), rng.Int63n(1 << 30), rng.Int63n(1 << 30), rng.Int63n(1 << 30)}
	var mix []job.Spec
	for b := 0; b < blocks; b++ {
		gss := rng.Perm(len(block))[:len(block)/5]
		specs := make([]job.Spec, len(block))
		for i, k := range block {
			s := job.Spec{Kernel: k, Scheduler: "afs", Procs: nproc, Tenant: "bench"}
			switch {
			case k == "tc-random":
				s.Params.Seed = graphs[rng.Intn(len(graphs))]
				if c.tiny {
					s.Params.N = 48
				}
			case c.tiny:
				s.Params.N = 64
			}
			specs[i] = s
		}
		for _, i := range gss {
			specs[i].Scheduler = "gss"
		}
		for _, i := range rng.Perm(len(specs)) {
			mix = append(mix, specs[i])
		}
	}
	return mix
}

func runServeKernels(c config) (*outcome, error) {
	mix := kernelMix(c)
	warm := 64
	if c.tiny {
		warm = 8
	}
	env, setup, err := setupServe(c, "", mix, warm)
	if err != nil {
		return nil, err
	}
	defer env.d.stop()
	o := &outcome{}
	o.set("setup_s", setup)
	loop := c.duration()
	if c.trace {
		o.spans = newSpanLog()
		loop /= 2
	}
	all, start := env.closedLoop(o.spans, c.trace, loop)
	ok := tally(o, all, start, loop)
	if c.trace {
		layerStats(o, all, ok)
		if err := env.runLadder(c, o, c.duration()-loop); err != nil {
			return nil, err
		}
	}
	rss, err := env.d.peakRSS()
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", rss)
	return o, nil
}

// serve-small tenants: two fair tenants with weights 1 and 2, and an
// aggressor whose token bucket admits aggressorQuota jobs/s (burst
// aggressorBurst) while it offers twice that.
const (
	aggressor      = "aggressor"
	aggressorQuota = 50.0
	aggressorBurst = 10.0
	fairRate       = 150.0 // offered jobs/s of each fair tenant
)

var smallTenants = fmt.Sprintf("fair-1:1,fair-2:2,%s:1:%g:%g", aggressor, aggressorQuota, aggressorBurst)

// smallSpec is a tiny job: one phase of 256 one-unit spins, so the
// loop body is about 1% of the request and the rest is HTTP decode,
// admission, fair queue, shard lookup, engine baton and dispatch.
func smallSpec(tenant string) job.Spec {
	return job.Spec{Kernel: "spin", Params: job.Params{N: 256, Phases: 1, Work: 1},
		Scheduler: "afs", Procs: nproc, Tenant: tenant}
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	at   time.Duration // offset from the start of the window
	spec int
}

// poissonArrivals draws each tenant's seeded Poisson arrivals over d
// and merges them in time order.
func poissonArrivals(rng *rand.Rand, rates []float64, d time.Duration) []arrival {
	var out []arrival
	for spec, rate := range rates {
		for t := 0.0; ; {
			t += rng.ExpFloat64() / rate
			if t >= d.Seconds() {
				break
			}
			out = append(out, arrival{at: time.Duration(t * float64(time.Second)), spec: spec})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// openLoop sends each arrival at its scheduled time from nproc sender
// goroutines; a request is timed from when it was due, so a stalled
// sender's backlog shows as latency, and its lateness is reported.
func (env *serveEnv) openLoop(spans *spanLog, trace bool, arrivals []arrival) ([]reply, time.Time) {
	ctx := context.Background()
	start := time.Now()
	var next atomic.Int64
	per := make([][]reply, nproc)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(arrivals)) {
					return
				}
				a := arrivals[i]
				due := start.Add(a.at)
				sleepUntil(due)
				var rec *spanLog
				if tracedRequest(trace, i) {
					rec = spans
				}
				per[w] = append(per[w], env.submit(ctx, rec, uint64(i)+1, a.spec, due))
			}
		}(w)
	}
	wg.Wait()
	var all []reply
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all, start
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer wakes sleepers on a millisecond poll on Linux, which would
// make the generator itself most of a tiny job's latency; nanosleep
// overshoots by the kernel's timer slack (about 50µs).
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// predictedShed is the token bucket's shed share for the aggressor's
// arrivals: it admits the burst plus quota×span, the rest is shed.
func predictedShed(arrivals []arrival, aggIdx int) float64 {
	var first, last time.Duration
	n := 0
	for _, a := range arrivals {
		if a.spec != aggIdx {
			continue
		}
		if n == 0 {
			first = a.at
		}
		last = a.at
		n++
	}
	if n == 0 {
		return 0
	}
	admitted := math.Min(float64(n), aggressorBurst+aggressorQuota*(last-first).Seconds())
	return 1 - admitted/float64(n)
}

func runServeSmall(c config) (*outcome, error) {
	tenants := []string{"fair-1", "fair-2", aggressor}
	rates := []float64{fairRate, fairRate, 2 * aggressorQuota}
	specs := make([]job.Spec, len(tenants))
	for i, t := range tenants {
		specs[i] = smallSpec(t)
	}
	warm := 2000
	if c.tiny {
		warm = 100
	}
	// The warm-up cycles the fair tenants; the aggressor's one warm-up
	// job (creating its bucket) comes from the distinct-spec pass, and
	// its bucket refills to the burst long before the window opens.
	env, setup, err := setupServe(c, smallTenants, specs, warm)
	if err != nil {
		return nil, err
	}
	defer env.d.stop()
	o := &outcome{}
	o.set("setup_s", setup)
	loop := c.duration()
	if c.trace {
		o.spans = newSpanLog()
		loop /= 2
	}
	arrivals := poissonArrivals(c.rng(3), rates, loop)
	all, start := env.openLoop(o.spans, c.trace, arrivals)
	ok := tally(o, all, start, loop)

	var late []float64
	aggSent, aggShed := 0, 0
	for _, r := range all {
		late = append(late, r.sent.Sub(r.intended).Seconds()*1e3)
		if r.spec == len(tenants)-1 {
			aggSent++
			if r.shed {
				aggShed++
			}
		}
	}
	o.set("gen_late_ms_p99", quantile(late, 0.99))
	shed := safeDiv(float64(aggShed), float64(aggSent))
	want := predictedShed(arrivals, len(tenants)-1)
	o.set("shed_frac", shed)
	o.set("shed_frac_predicted", want)
	if math.Abs(shed-want) > 0.03+1/math.Sqrt(float64(aggSent+1)) {
		o.problems = append(o.problems, fmt.Sprintf("aggressor shed share %.4f, token bucket predicts %.4f", shed, want))
	}
	if c.trace {
		layerStats(o, all, ok)
		if err := env.runLadder(c, o, c.duration()-loop); err != nil {
			return nil, err
		}
	}
	rss, err := env.d.peakRSS()
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", rss)
	return o, nil
}
