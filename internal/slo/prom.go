package slo

import (
	"io"
	"strconv"

	"repro/internal/promtext"
)

// WriteProm renders a report in the Prometheus text exposition format
// (version 0.0.4), for appending to the plane's /metrics.prom scrape:
// per-(objective, window) burn rates and bad fractions, the last
// observed value per objective, and 0/1 breach flags ready for
// alerting rules.
func WriteProm(w io.Writer, rep Report) error {
	pw := promtext.NewWriter(w)
	pw.Counter("loopsched_slo_evaluations_total", "SLO engine ticks since start.", rep.Ticks)

	pw.Family("loopsched_slo_value", "gauge", "Last observed value of the objective's metric.")
	for _, o := range rep.Objectives {
		if o.Observed {
			pw.Float("loopsched_slo_value", o.Value, "objective", o.Name)
		}
	}

	pw.Family("loopsched_slo_breaching", "gauge", "1 when every window of the objective is burning.")
	for _, o := range rep.Objectives {
		var v int64
		if o.Breaching {
			v = 1
		}
		pw.Int("loopsched_slo_breaching", v, "objective", o.Name)
	}

	windowed := func(name, help string, v func(WindowStatus) float64) {
		pw.Family(name, "gauge", help)
		for _, o := range rep.Objectives {
			for _, ws := range o.Windows {
				window := strconv.FormatFloat(ws.DurationSecs, 'g', -1, 64) + "s"
				pw.Float(name, v(ws), "objective", o.Name, "window", window)
			}
		}
	}
	windowed("loopsched_slo_burn_rate", "Window bad fraction over the error budget.",
		func(ws WindowStatus) float64 { return ws.BurnRate })
	windowed("loopsched_slo_bad_fraction", "Bad observations over all observations in the window.",
		func(ws WindowStatus) float64 { return ws.BadFraction })
	return pw.Err()
}
