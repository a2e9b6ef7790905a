package bundle

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"
)

// ServeList writes the store's retained bundles as JSON, newest
// first (loopserved's /bundles endpoint).
func ServeList(w http.ResponseWriter, s *Store) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	entries := s.List()
	if entries == nil {
		entries = []Entry{}
	}
	_ = enc.Encode(entries)
}

// ServeBundle streams one bundle tar by ?id= (loopserved's /bundle
// endpoint), so `curl -O` or `loopdoctor bundle <url>` moves the whole
// evidence set in one request.
func ServeBundle(w http.ResponseWriter, r *http.Request, s *Store) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing ?id=<bundle id> (see /bundles)", http.StatusBadRequest)
		return
	}
	path, ok := s.Path(id)
	if !ok {
		http.Error(w, "unknown bundle id (evicted or never captured; see /bundles)", http.StatusNotFound)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, "bundle unreadable", http.StatusInternalServerError)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-tar")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".tar"))
	http.ServeContent(w, r, id+".tar", s.entryTime(id), f)
}

// entryTime resolves a bundle's capture time for HTTP caching
// headers; zero time (unknown id) disables them, which is harmless.
func (s *Store) entryTime(id string) (t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.ID == id {
			return e.CapturedAt
		}
	}
	return
}
