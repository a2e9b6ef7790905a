package perflab

import (
	"encoding/json"
	"expvar"
	"fmt"
	"html/template"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/webui"
)

// LiveState is the shared progress of an in-flight benchmark run,
// updated by the runner's Progress hook and polled by the dashboard at
// /api/live — the "latest run streaming in" panel.
type LiveState struct {
	mu sync.Mutex
	s  liveSnapshot
}

type liveSnapshot struct {
	Running bool         `json:"running"`
	Done    int          `json:"done"`
	Total   int          `json:"total"`
	Error   string       `json:"error,omitempty"`
	Results []CaseResult `json:"results"`
}

// Begin marks a run of total cases as started, clearing prior results.
func (l *LiveState) Begin(total int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s = liveSnapshot{Running: true, Total: total}
}

// Record appends one completed case.
func (l *LiveState) Record(done, total int, res CaseResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.Done, l.s.Total = done, total
	l.s.Results = append(l.s.Results, res)
}

// Finish marks the run complete, recording any terminal error.
func (l *LiveState) Finish(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.Running = false
	if err != nil {
		l.s.Error = err.Error()
	}
}

func (l *LiveState) snapshot() liveSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.s
	s.Results = append([]CaseResult(nil), l.s.Results...)
	return s
}

// expvar.Publish panics on duplicate names, so the perflab_live_done
// callback is registered once and reads whichever LiveState the most
// recent NewServer installed — a later server with a fresh state is
// not stuck reporting the first one's progress.
var (
	publishOnce sync.Once
	liveVar     atomic.Pointer[LiveState]
)

// NewServer builds the dashboard handler over the baseline directory.
// live may be nil (the live panel then reports idle). The handler also
// exposes /debug/pprof and /debug/vars through webui.DebugHandler.
func NewServer(dir string, live *LiveState) http.Handler {
	if live == nil {
		live = &LiveState{}
	}
	liveVar.Store(live)
	publishOnce.Do(func() {
		expvar.Publish("perflab_live_done", expvar.Func(func() any {
			s := liveVar.Load().snapshot()
			return map[string]int{"done": s.Done, "total": s.Total}
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		baselines, err := LoadAll(dir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		renderIndex(w, baselines)
	})
	mux.HandleFunc("/api/baselines", func(w http.ResponseWriter, r *http.Request) {
		baselines, err := LoadAll(dir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(baselines)
	})
	mux.HandleFunc("/api/live", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(live.snapshot())
	})
	mux.HandleFunc("/trend.svg", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("case")
		baselines, err := LoadAll(dir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		var b strings.Builder
		TrendFigure(id, baselines).SVG(&b)
		fmt.Fprint(w, b.String())
	})
	mux.Handle("/debug/", webui.DebugHandler())
	return mux
}

var indexTmpl = template.Must(template.New("index").Parse(`
<h1>perflab — continuous performance lab</h1>
<p>{{len .Baselines}} baseline(s) on record.
See <a href="/api/baselines">/api/baselines</a>, <a href="/debug/vars">/debug/vars</a>,
<a href="/debug/pprof/">/debug/pprof</a>.</p>

<h2>Live run</h2>
<p id="live-status" class="muted">idle</p>
<table id="live-table" style="display:none">
<thead><tr><th>case</th><th>median</th><th>MAD</th><th>ci95</th><th>steals</th><th>top overhead</th></tr></thead>
<tbody></tbody>
</table>

<h2>Baselines</h2>
<table>
<tr><th>seq</th><th>git</th><th>when</th><th>host</th><th>cases</th></tr>
{{range .Baselines}}<tr><td>{{.Seq}}</td><td>{{printf "%.10s" .GitSHA}}</td>
<td>{{.Timestamp.Format "2006-01-02 15:04"}}</td><td>{{.Host}}</td><td>{{len .Cases}}</td></tr>
{{end}}
</table>

<h2>Per-case trends</h2>
{{range .CaseIDs}}
<div class="trend"><img src="/trend.svg?case={{.}}" alt="trend {{.}}"></div>
{{end}}
`))

// indexScript renders the live panel from /api/live via the shared
// webui poll loop.
const indexScript = template.JS(`
function renderLive(s) {
  const status = document.getElementById('live-status');
  const table = document.getElementById('live-table');
  if (s.total > 0) {
    status.textContent = (s.running ? 'running: ' : 'finished: ') +
      s.done + '/' + s.total + ' cases' + (s.error ? ' — ERROR: ' + s.error : '');
    table.style.display = '';
    const body = table.querySelector('tbody');
    body.innerHTML = '';
    for (const c of (s.results || [])) {
      const tr = document.createElement('tr');
      const ci = '[' + c.summary.ci_lo.toPrecision(4) + ', ' + c.summary.ci_hi.toPrecision(4) + ']';
      let top = '';
      if (c.forensics && c.forensics.makespan > 0) {
        const share = 100 * c.forensics.buckets[c.forensics.top_overhead] / c.forensics.makespan;
        top = c.forensics.top_overhead + ' ' + share.toFixed(1) + '%';
      }
      for (const v of [c.id, c.summary.median.toPrecision(4) + 's',
                       c.summary.mad.toPrecision(3), ci,
                       String((c.counters && c.counters.steals) || 0), top]) {
        const td = document.createElement('td');
        td.textContent = v;
        tr.appendChild(td);
      }
      body.appendChild(tr);
    }
  }
}
pollLoop('/api/live', 2000, renderLive);
`)

func renderIndex(w http.ResponseWriter, baselines []*Baseline) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	indexTmpl.Execute(&b, struct {
		Baselines []*Baseline
		CaseIDs   []string
	}{baselines, caseIDs(baselines)})
	webui.Render(w, webui.Page{
		Title:  "perflab dashboard",
		Body:   template.HTML(b.String()),
		Script: indexScript,
	})
}
