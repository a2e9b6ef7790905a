// Package webui holds what the repo's HTTP surfaces (loopserved,
// realbench -pprof) share: one stylesheet, one page
// skeleton and one JSON-poll auto-refresh script for the dashboards,
// one indented JSON responder, and one /debug/ route set (pprof and
// expvar).
package webui

import (
	"encoding/json"
	"expvar"
	"html/template"
	"io"
	"net/http"
	"net/http/pprof"
)

// CSS is the shared dashboard stylesheet.
const CSS = `
body { font-family: sans-serif; margin: 2em; max-width: 1100px; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #ccc; padding: 4px 10px; text-align: left; }
.trend { margin: 1em 0; }
.regression { color: #c00; font-weight: bold; }
.muted { color: #555; }
`

// PollJS defines pollLoop(url, everyMS, apply): fetch url as JSON,
// hand the parsed value to apply, swallow transient fetch errors (the
// server may be restarting) and re-arm. Pages add their own apply
// function in Page.Script and start the loop themselves. It also
// defines row(cells), which builds a table row of text cells.
const PollJS = `
function row(cells) {
  const tr = document.createElement('tr');
  for (const v of cells) {
    const td = document.createElement('td');
    td.textContent = v;
    tr.appendChild(td);
  }
  return tr;
}
async function pollLoop(url, everyMS, apply) {
  try {
    const r = await fetch(url);
    apply(await r.json());
  } catch (e) { /* server restarting; keep polling */ }
  setTimeout(() => pollLoop(url, everyMS, apply), everyMS);
}
`

// Page is one dashboard page: pre-rendered body markup plus the page's
// own script, wrapped by Render in the shared skeleton.
type Page struct {
	Title  string
	Body   template.HTML
	Script template.JS
}

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}}</title>
<style>{{.CSS}}</style></head>
<body>
{{.Body}}
<script>
{{.PollJS}}
{{.Script}}
</script>
</body></html>
`))

// Render writes the complete page: shared CSS and poll helper plus the
// page's body and script.
func Render(w io.Writer, p Page) error {
	return pageTmpl.Execute(w, struct {
		Page
		CSS    template.CSS
		PollJS template.JS
	}{p, CSS, PollJS})
}

// WriteJSON answers with v as indented JSON. Once the header is sent
// an encoding or write error cannot be reported, so none is returned.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// DebugHandler serves /debug/pprof/ and /debug/vars. Mount it at
// /debug/ or serve it on its own. It registers the pprof and expvar
// handlers explicitly and never falls back to http.DefaultServeMux,
// so handlers other packages register globally stay off the surface.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
