package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/livemetrics"
	"repro/internal/promtext"
)

// fakeClock is a manually advanced admission clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// tinySpec is a job small enough that a full pipeline round-trip costs
// microseconds.
func tinySpec(tenant string) job.Spec {
	return job.Spec{
		Kernel: "spin",
		Params: job.Params{N: 64, Phases: 1, Work: 1},
		Procs:  2,
		Tenant: tenant,
	}
}

// TestWFQProportionalShare pins the SFQ invariant the fairness gate
// relies on: with both tenants fully backlogged, dispatch slots split
// in proportion to weight regardless of arrival order or volume.
func TestWFQProportionalShare(t *testing.T) {
	q := newWFQ(1000)
	now := time.Unix(0, 0)
	for i := 0; i < 90; i++ {
		if !q.push(&submission{tenant: "a"}, 1, now) {
			t.Fatal("push a refused")
		}
	}
	for i := 0; i < 90; i++ {
		if !q.push(&submission{tenant: "b"}, 2, now) {
			t.Fatal("push b refused")
		}
	}
	counts := map[string]int{}
	for i := 0; i < 60; i++ {
		counts[q.pop().e.tenant]++
	}
	// Weight 2 vs 1: b should take two slots for every one of a's.
	if counts["a"] < 19 || counts["a"] > 21 || counts["b"] < 39 || counts["b"] > 41 {
		t.Fatalf("60 dispatches split a=%d b=%d, want ~20/~40", counts["a"], counts["b"])
	}

	// A tenant arriving mid-stream starts at the current virtual time —
	// it competes fairly from now on, with no credit for its idle past.
	for i := 0; i < 30; i++ {
		q.push(&submission{tenant: "c"}, 1, now)
	}
	counts = map[string]int{}
	for i := 0; i < 40; i++ {
		counts[q.pop().e.tenant]++
	}
	if counts["c"] == 0 || counts["c"] > 15 {
		t.Fatalf("late tenant got %d of 40 slots (a=%d b=%d)", counts["c"], counts["a"], counts["b"])
	}
}

func TestWFQBoundedDepth(t *testing.T) {
	q := newWFQ(3)
	now := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		if !q.push(&submission{tenant: "a"}, 1, now) {
			t.Fatalf("push %d refused under the bound", i)
		}
	}
	if q.push(&submission{tenant: "a"}, 1, now) {
		t.Fatal("push beyond the depth bound accepted")
	}
	if q.depth() != 3 {
		t.Fatalf("depth = %d, want 3", q.depth())
	}
}

// TestQuotaShedDeterministic drives the token bucket with a fake
// clock: a 10 jobs/sec tenant admits exactly its burst, sheds with the
// refill interval as Retry-After, and recovers once the clock
// advances.
func TestQuotaShedDeterministic(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s, err := New(Options{
		Procs: 2,
		Tenants: map[string]TenantConfig{
			"metered": {Rate: 10, Burst: 1},
		},
		Now: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := tinySpec("metered")
	if _, err := s.Submit(context.Background(), spec); err != nil {
		t.Fatalf("burst submission refused: %v", err)
	}
	_, err = s.Submit(context.Background(), spec)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("over-quota submission returned %v, want *ShedError", err)
	}
	if shed.Reason != "quota" || shed.Tenant != "metered" {
		t.Fatalf("shed = %+v", shed)
	}
	if shed.RetryAfter <= 0 || shed.RetryAfter > 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want (0, 100ms] at 10 jobs/sec", shed.RetryAfter)
	}
	if got := HTTPStatus(err); got != 429 {
		t.Fatalf("shed classifies as %d, want 429", got)
	}

	clock.advance(100 * time.Millisecond)
	if _, err := s.Submit(context.Background(), spec); err != nil {
		t.Fatalf("submission after refill refused: %v", err)
	}
}

// TestOverloadFavoredTenantUnharmed is the acceptance property in
// deterministic form: one tenant submits at 4× its quota while the
// other stays inside its own; every excess job sheds as 429 material
// and the favored tenant's goodput is untouched (100% of fair share).
func TestOverloadFavoredTenantUnharmed(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	plane := livemetrics.New(livemetrics.Options{})
	defer plane.Close()
	s, err := New(Options{
		Procs: 2,
		Tenants: map[string]TenantConfig{
			"steady":     {Rate: 100, Burst: 1},
			"aggressive": {Rate: 100, Burst: 1},
		},
		Plane: plane,
		Now:   clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const rounds = 25
	var steadyOK, aggOK, aggShed int
	for i := 0; i < rounds; i++ {
		clock.advance(10 * time.Millisecond) // exactly one token per tenant per round
		if _, err := s.Submit(context.Background(), tinySpec("steady")); err != nil {
			t.Fatalf("round %d: steady tenant refused: %v", i, err)
		}
		steadyOK++
		for j := 0; j < 4; j++ { // 4× the sustainable rate
			_, err := s.Submit(context.Background(), tinySpec("aggressive"))
			switch {
			case err == nil:
				aggOK++
			case HTTPStatus(err) == 429:
				aggShed++
			default:
				t.Fatalf("round %d: unexpected error %v", i, err)
			}
		}
	}
	if steadyOK != rounds {
		t.Fatalf("steady goodput %d/%d", steadyOK, rounds)
	}
	if aggOK != rounds || aggShed != 3*rounds {
		t.Fatalf("aggressive tenant: %d admitted %d shed, want %d/%d", aggOK, aggShed, rounds, 3*rounds)
	}

	// The plane's per-tenant series carry the same story for the CI
	// smoke test's prom scrape.
	var buf bytes.Buffer
	if err := livemetrics.WriteProm(&buf, plane.Snapshot()); err != nil {
		t.Fatal(err)
	}
	exp, err := promtext.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := exp.Value("loopsched_tenant_shed_total", "tenant", "aggressive"); v != float64(3*rounds) {
		t.Fatalf("aggressive shed series = %v, want %d", v, 3*rounds)
	}
	if v, _ := exp.Value("loopsched_tenant_completed_total", "tenant", "steady"); v != float64(rounds) {
		t.Fatalf("steady completed series = %v, want %d", v, rounds)
	}
}

// TestShardReuse pins the fleet-wide affinity contract: jobs sharing
// scheduler×procs land on one persistent executor (its AFS ownership
// state survives between them), and a different procs count forks a
// new shard.
func TestShardReuse(t *testing.T) {
	s, err := New(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(), tinySpec("")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	other := tinySpec("")
	other.Procs = 1
	if _, err := s.Submit(context.Background(), other); err != nil {
		t.Fatal(err)
	}

	st := s.Status()
	if len(st.Shards) != 2 {
		t.Fatalf("shards = %+v, want 2 (AFS×2 reused, AFS×1 forked)", st.Shards)
	}
	byName := map[string]ShardStatus{}
	for _, sh := range st.Shards {
		byName[sh.Shard] = sh
	}
	if sh := byName["AFS×2"]; sh.Submissions != 3 {
		t.Fatalf("AFS×2 shard = %+v, want 3 submissions", sh)
	}
	if sh := byName["AFS×1"]; sh.Submissions != 1 {
		t.Fatalf("AFS×1 shard = %+v, want 1 submission", sh)
	}
	if st.Dispatched != 4 {
		t.Fatalf("dispatched = %d, want 4", st.Dispatched)
	}
}

func TestRejectInvalidSpec(t *testing.T) {
	s, err := New(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cases := []job.Spec{
		{},                         // no kernel
		{Kernel: "no-such-kernel"}, // unknown kernel
		{Kernel: "spin", Scheduler: "no-such-sched"},
	}
	for _, spec := range cases {
		_, err := s.Submit(context.Background(), spec)
		var rej *RejectError
		if !errors.As(err, &rej) {
			t.Errorf("spec %+v: err = %v, want *RejectError", spec, err)
			continue
		}
		if got := HTTPStatus(err); got != 400 {
			t.Errorf("spec %+v classifies as %d, want 400", spec, got)
		}
	}
}

func TestCloseDrains(t *testing.T) {
	s, err := New(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), tinySpec("")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(context.Background(), tinySpec(""))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if got := HTTPStatus(err); got != 503 {
		t.Fatalf("ErrClosed classifies as %d, want 503", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close not idempotent:", err)
	}
}

// TestHTTPEndToEnd exercises the wire contract: a successful job
// round-trip with a reproducible checksum, 429 + Retry-After on shed,
// 400 on an invalid or undecodable spec, 413 on an oversize body, and
// the introspection endpoints.
func TestHTTPEndToEnd(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s, err := New(Options{
		Procs: 2,
		Tenants: map[string]TenantConfig{
			"metered": {Rate: 1, Burst: 1},
		},
		Now: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s, "test"))
	defer ts.Close()

	postRaw := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	post := func(spec job.Spec) *http.Response {
		t.Helper()
		body, _ := json.Marshal(spec)
		return postRaw(body)
	}

	spec := job.Spec{Kernel: "gauss", Params: job.Params{N: 32}, Procs: 2, Scheduler: "gss"}
	resp := post(spec)
	if resp.StatusCode != 200 {
		t.Fatalf("POST /jobs = %d", resp.StatusCode)
	}
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.Scheduler != "GSS" || jr.Shard != "GSS×2" || jr.Phases != 31 || jr.Checksum == 0 {
		t.Fatalf("job response = %+v", jr)
	}

	// Same job again: the checksum is reproducible across the wire.
	resp = post(spec)
	var jr2 jobResponse
	json.NewDecoder(resp.Body).Decode(&jr2)
	resp.Body.Close()
	if jr2.Checksum != jr.Checksum {
		t.Fatalf("checksums differ across identical jobs: %v vs %v", jr.Checksum, jr2.Checksum)
	}

	// Over quota: 429 with a whole-seconds Retry-After header.
	if resp := post(tinySpec("metered")); resp.StatusCode != 200 {
		t.Fatalf("metered burst = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp = post(tinySpec("metered"))
	if resp.StatusCode != 429 {
		t.Fatalf("over-quota POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var er errorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if er.Reason != "quota" || er.RetryAfterSecs <= 0 {
		t.Fatalf("shed body = %+v", er)
	}

	// Invalid spec: 400 naming the offending field.
	resp = post(job.Spec{Kernel: "spin", Procs: -1})
	if resp.StatusCode != 400 {
		t.Fatalf("invalid spec POST = %d, want 400", resp.StatusCode)
	}
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if !strings.Contains(er.Error, "jobspec.procs") {
		t.Fatalf("400 body does not name the field: %+v", er)
	}

	// Undecodable bodies: truncated JSON is a 400; a body past
	// maxSpecBytes (here a tenant string running past the cap, so the
	// decoder hits the limit, not a syntax error) is a 413.
	resp = postRaw([]byte(`{"kernel":`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated POST = %d, want 400", resp.StatusCode)
	}
	resp = postRaw(append([]byte(`{"kernel":"spin","tenant":"`), bytes.Repeat([]byte("x"), maxSpecBytes)...))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize POST = %d, want 413", resp.StatusCode)
	}

	for _, path := range []string{"/kernels", "/status", "/tenants", "/shards", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("index content type %q", ct)
	}
	resp.Body.Close()
}
