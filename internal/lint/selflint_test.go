package lint

import (
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSelfLint runs the full suite over the whole module with the
// default configuration, so `go test ./...` fails the moment the repo
// violates its own determinism, locking, telemetry or hygiene rules.
// Every surviving exception must carry a reasoned //lint:allow — those
// are logged here for auditability, never failed on.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	m := loadTestModule(t)
	pkgs, err := m.Load("./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d): pattern expansion is broken", len(pkgs))
	}
	cfg := DefaultConfig(m.Path)
	diags := Run(m, pkgs, cfg)
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			t.Logf("allowed: %s", d)
			continue
		}
		t.Errorf("unsuppressed finding: %s", d)
	}
	// The suppression inventory must be live: a directive whose finding
	// has been fixed grants a standing exemption to future regressions
	// at that site, so stale allows fail the build too.
	for _, d := range UnusedAllows(pkgs, diags, cfg) {
		t.Errorf("stale suppression: %s", d)
	}
	t.Logf("self-lint: %d package(s), %d reasoned exception(s)", len(pkgs), suppressed)
}

// TestDefaultConfigPathsResolve: every package path DefaultConfig
// names has Go sources at or below it in the module, so deleting or
// moving a package cannot leave a group entry behind that silently
// matches nothing.
func TestDefaultConfigPathsResolve(t *testing.T) {
	m := loadTestModule(t)
	cfg := DefaultConfig(m.Path)
	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i).Name
		if field == "Checks" {
			continue
		}
		var paths []string
		switch f := v.Field(i).Interface().(type) {
		case string:
			if f != "" {
				paths = []string{f}
			}
		case []string:
			paths = f
		default:
			t.Fatalf("Config.%s has type %T; teach this test about it", field, f)
		}
		for _, p := range paths {
			if field == "EventTypes" { // "import/path.TypeName"
				p = p[:strings.LastIndex(p, ".")]
			}
			if !hasPackageUnder(m.dirFor(p)) {
				t.Errorf("Config.%s names %s, which has no package in the module", field, p)
			}
		}
	}
}

// hasPackageUnder reports whether dir or any directory below it holds
// non-test Go sources.
func hasPackageUnder(dir string) bool {
	found := false
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && hasGoSources(p) {
			found = true
			return fs.SkipAll
		}
		return nil
	})
	return found
}
