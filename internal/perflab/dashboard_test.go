package perflab

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDashboardDebugDoesNotLeakDefaultServeMux: the dashboard's
// /debug/ tree serves pprof and expvar only. A handler registered on
// the process-wide default mux must not show up under it.
func TestDashboardDebugDoesNotLeakDefaultServeMux(t *testing.T) {
	http.HandleFunc("/debug/leak-sentinel-perflab", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
	})
	srv := httptest.NewServer(NewServer(t.TempDir(), nil))
	defer srv.Close()

	for _, c := range []struct {
		path, contains string
		code           int
	}{
		{"/debug/leak-sentinel-perflab", "", 404},
		{"/debug/pprof/", "goroutine", 200},
		{"/debug/vars", "perflab_live_done", 200},
	} {
		resp, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("GET %s = %d, want %d", c.path, resp.StatusCode, c.code)
		}
		if !strings.Contains(string(body), c.contains) {
			t.Errorf("GET %s: body lacks %q", c.path, c.contains)
		}
	}
}
