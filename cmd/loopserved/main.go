// Command loopserved is the loop-scheduling service daemon: a
// long-running multi-tenant executor fleet accepting serializable job
// specs over HTTP/JSON against named pre-registered kernels, admitted
// through per-tenant token-bucket quotas and a weighted fair queue
// with a bounded backlog (excess sheds as 429 + Retry-After), and
// dispatched onto executor shards keyed scheduler×procs so affinity
// state persists across jobs fleet-wide.
//
//	loopserved -addr localhost:8093 -p 4 \
//	    -tenants "team-a:2:100:20,team-b:1:25:5"
//
//	/             service index (tenants, shards, queue — live)
//	/jobs         POST a job spec; stats + checksum back
//	/kernels      registered kernels and their default params
//	/status       queue depth, dispatch totals, tenants, shards
//	/tenants      tenant rows only; /shards shard rows only
//	/healthz      200 until shutdown begins
//	/metrics      plane snapshot JSON (per-tenant admission series)
//	/metrics.prom combined Prometheus exposition: plane + admission +
//	              SLO burn rates + watchdog + Go runtime
//	/slo          burn-rate report over default + serving objectives
//	/watchdog     detector status (default + serving rules)
//	/workers      per-worker affinity-hit ratio, steals, queue depth
//	/flight /traces /trace   flight dump (?format=), span traces
//	/runtime      Go runtime/metrics sample; /debug/ pprof + expvar
//	/bundles /bundle?id=   diagnostic bundles (with -bundles DIR)
//
// Submit with the repro/serveclient package or plain curl:
//
//	curl -s -X POST localhost:8093/jobs -d \
//	    '{"kernel":"sor","scheduler":"afs","procs":4,"tenant":"team-a"}'
//
// The serving layer is wired into auto-triage end to end: admission
// p99 and shed-rate SLOs burn alongside the engine objectives, and
// the watchdog's shed-surge/admission-stall rules freeze diagnostic
// bundles when the queue collapses.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flag"

	"repro"
	"repro/internal/bundle"
	"repro/internal/cli"
	"repro/internal/livemetrics"
	"repro/internal/promtext"
	"repro/internal/runtimeobs"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/watchdog"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loopserved:", err)
		os.Exit(1)
	}
}

type options struct {
	addr        string
	procs       int
	queue       int
	dispatchers int
	tenants     map[string]repro.ServerTenant
	window      time.Duration
	flight      int
	duration    time.Duration
	bundles     string
	wdTick      time.Duration
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("loopserved", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8093", "HTTP listen address (host:port)")
	procs := fs.Int("p", 4, "default workers per executor shard (specs may pin their own)")
	queue := fs.Int("queue", 256, "admission backlog bound; arrivals past it shed with 429")
	dispatchers := fs.Int("dispatchers", 1, "concurrent dispatch lanes (1 = strict fair-queue order)")
	tenants := fs.String("tenants", "", "per-tenant policy: comma-separated NAME:WEIGHT:RATE:BURST (rate in jobs/sec; 0 or omitted = no quota)")
	window := fs.Duration("window", 10*time.Second, "rolling-quantile window")
	flight := fs.Int("flight", 4096, "flight-recorder event capacity")
	duration := fs.Duration("duration", 0, "stop after this long (0 = run until signalled)")
	bundles := fs.String("bundles", "", "capture watchdog diagnostic bundles into this directory (empty = watchdog only, no capture)")
	wdTick := fs.Duration("watchdog-tick", 250*time.Millisecond, "watchdog detector tick interval")
	fs.Parse(args)

	var o options
	var err error
	if o.addr, err = cli.AddrFlag("-addr", *addr); err != nil {
		return o, err
	}
	if err := cli.FirstError(
		cli.PositiveInt("-p", *procs),
		cli.PositiveInt("-queue", *queue),
		cli.PositiveInt("-dispatchers", *dispatchers),
		cli.PositiveInt("-flight", *flight),
		cli.PositiveDuration("-watchdog-tick", *wdTick),
	); err != nil {
		return o, err
	}
	if o.tenants, err = serve.ParseTenants("-tenants", *tenants); err != nil {
		return o, err
	}
	o.procs, o.queue, o.dispatchers = *procs, *queue, *dispatchers
	o.window, o.flight, o.duration = *window, *flight, *duration
	o.bundles, o.wdTick = *bundles, *wdTick
	return o, nil
}

// HTTP server timeouts. POST /jobs blocks until its job completes, so
// only the header read and idle keep-alives are bounded.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// objectives and rules are the SLO objectives and watchdog rules the
// daemon arms: the engine's stock set plus the serving layer's.
func objectives() []slo.Objective { return append(slo.DefaultObjectives(), slo.ServingObjectives()...) }
func rules() []watchdog.Rule      { return append(watchdog.DefaultRules(), watchdog.ServingRules()...) }

// writeCombinedProm concatenates every exposition the daemon owns into
// one scrape, deduplicating # HELP/# TYPE per family so a family
// declared by two writers stays a valid exposition: plane + per-tenant
// admission, SLO burn rates, watchdog, and Go runtime series.
func writeCombinedProm(w io.Writer, plane *livemetrics.Plane, sloEng *slo.Engine, wd *watchdog.Watchdog, sampler *runtimeobs.Sampler) error {
	d := promtext.NewFamilyDeduper(w)
	if err := livemetrics.WriteProm(d, plane.Snapshot()); err != nil {
		return err
	}
	if err := slo.WriteProm(d, sloEng.Report()); err != nil {
		return err
	}
	if err := watchdog.WriteProm(d, wd.Status()); err != nil {
		return err
	}
	if err := runtimeobs.WriteProm(d, sampler.Snapshot()); err != nil {
		return err
	}
	return d.Flush()
}

func run(args []string) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}

	plane := repro.NewObservability(repro.ObservabilityOptions{
		Window:       o.window,
		FlightEvents: o.flight,
		FlightProv:   o.flight / 2,
	})
	defer plane.Close()
	tracer := repro.NewTracing(repro.TracingOptions{})

	server, err := repro.NewServer(repro.ServerOptions{
		Procs:       o.procs,
		QueueLimit:  o.queue,
		Dispatchers: o.dispatchers,
		Tenants:     o.tenants,
		Plane:       plane,
		Tracer:      tracer,
	})
	if err != nil {
		return err
	}
	defer server.Close()

	// Burn-rate engine over engine AND serving objectives. /slo serves
	// the report; the combined scrape carries the loopsched_slo_* series.
	sloEng, err := slo.New(plane.Snapshot, objectives(), slo.Options{})
	if err != nil {
		return err
	}
	stopSLO := sloEng.Start(time.Second)
	defer stopSLO()

	sampler := runtimeobs.NewSampler()
	stopSampler := sampler.Start(time.Second)
	defer stopSampler()
	plane.SetRuntimeSource(sampler.SnapshotAny)

	label := fmt.Sprintf("loopserved p=%d q=%d", o.procs, o.queue)

	// Auto-triage: when a watchdog rule fires, the attached capturer
	// freezes a diagnostic bundle into the bounded -bundles store.
	wd, err := watchdog.New(plane.Snapshot, rules(), watchdog.Options{
		SLO:        sloEng,
		AnomalySeq: plane.Recorder().AnomalySeq,
	})
	if err != nil {
		return err
	}
	var bstore *bundle.Store
	if o.bundles != "" {
		bstore, err = bundle.OpenStore(o.bundles, bundle.StoreOptions{})
		if err != nil {
			return err
		}
		capt, err := bundle.NewCapturer(bstore, bundle.Sources{
			Plane: plane, SLO: sloEng, Runtime: sampler, Label: label,
		}, bundle.Options{})
		if err != nil {
			return err
		}
		bundle.Attach(wd, capt, func(err error) {
			fmt.Fprintln(os.Stderr, "loopserved: bundle capture:", err)
		})
	}
	wd.OnTrigger(func(t watchdog.Trigger) {
		fmt.Fprintf(os.Stderr, "loopserved: watchdog fired: %s (%s)\n", t.Rule, t.Reason)
	})
	stopWD := wd.Start(o.wdTick)
	defer stopWD()

	// Route layout: the serve handler owns the front door; the plane's
	// introspection endpoints mount beside it; /metrics.prom is
	// overridden with the combined exposition.
	obsHandler := repro.ObservabilityHandler(plane, label)
	mux := http.NewServeMux()
	mux.Handle("/", repro.ServeHandler(server, label))
	for _, path := range []string{"/metrics", "/workers", "/flight", "/traces", "/trace", "/debug/"} {
		mux.Handle(path, obsHandler)
	}
	mux.Handle("/slo", slo.Handler(sloEng, label))
	serveJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	mux.HandleFunc("/watchdog", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, wd.Status())
	})
	mux.HandleFunc("/runtime", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, sampler.Snapshot())
	})
	mux.HandleFunc("/bundles", func(w http.ResponseWriter, r *http.Request) {
		if bstore == nil {
			http.Error(w, "bundle capture disabled (start loopserved with -bundles DIR)", http.StatusNotFound)
			return
		}
		bundle.ServeList(w, bstore)
	})
	mux.HandleFunc("/bundle", func(w http.ResponseWriter, r *http.Request) {
		if bstore == nil {
			http.Error(w, "bundle capture disabled (start loopserved with -bundles DIR)", http.StatusNotFound)
			return
		}
		bundle.ServeBundle(w, r, bstore)
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeCombinedProm(w, plane, sloEng, wd, sampler)
	})

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if o.duration > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, o.duration)
		defer tcancel()
	}

	srv := &http.Server{
		Addr:              o.addr,
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "loopserved: serving http://%s (p=%d, queue=%d, %d tenant policies)\n",
		o.addr, o.procs, o.queue, len(o.tenants))

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		// Graceful drain: stop accepting (healthz goes 503 via
		// server.Close), finish in-flight HTTP exchanges, then stop.
		server.Close()
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		return srv.Shutdown(shutCtx)
	}
}
