// Transitive closure: Warshall's algorithm over a skewed input — the
// paper's showcase for input-dependent load imbalance (§4.3, Fig 6).
// With all the work concentrated in a clique, STATIC collapses, GSS's
// oversized first chunk becomes the straggler, and AFS balances by
// stealing while keeping most iterations on their home processors.
//
// The example computes reachability on a clique-plus-isolated-nodes
// graph under several schedulers, prints steal activity, and verifies
// all closures agree.
//
//	go run ./examples/tclosure [-nodes 640] [-clique 320]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		nodes  = flag.Int("nodes", 640, "graph nodes")
		clique = flag.Int("clique", 320, "clique size (the load skew)")
	)
	flag.Parse()

	input := workload.CliqueGraph(*nodes, *clique)
	ref := kernels.NewTCGraph(input)
	ref.RunSerial()

	algos := []string{"static", "best-static", "gss", "factoring", "afs", "mod-factoring"}
	tab := stats.NewTable(
		fmt.Sprintf("transitive closure, %d nodes with a %d-clique — real runtime", *nodes, *clique),
		"algorithm", "wall time", "sync ops", "steals", "migrated", "closure")
	for _, name := range algos {
		tc := kernels.NewTCGraph(input)
		var elapsed, ops, steals, migrated int64
		// BEST-STATIC gets the oracle: clique rows are N times costlier.
		hint := func(ph, j int) float64 {
			if j < *clique {
				return float64(*nodes)
			}
			return 1
		}
		for ph := 0; ph < *nodes; ph++ {
			tc.BeginPhase(ph)
			st, err := repro.ParallelFor(*nodes,
				func(j int) { tc.UpdateRow(ph, j) },
				repro.WithScheduler(name),
				repro.WithCostHint(func(_, j int) float64 { return hint(ph, j) }))
			if err != nil {
				log.Fatal(err)
			}
			elapsed += int64(st.Elapsed)
			ops += st.TotalSyncOps()
			steals += st.Steals
			migrated += st.MigratedIters
		}
		result := "OK"
		if !tc.G.Equal(ref.G) {
			result = "MISMATCH"
		}
		tab.AddRow(name, fmt.Sprintf("%.2fms", float64(elapsed)/1e6),
			fmt.Sprint(ops), fmt.Sprint(steals), fmt.Sprint(migrated), result)
	}
	tab.Render(os.Stdout)
	// AFS-LE needs an iteration identity that survives across phases,
	// which only the simulator has; the real runtime must refuse it
	// rather than silently run plain AFS.
	if _, err := repro.ParallelFor(*nodes, func(int) {}, repro.WithScheduler("afs-le")); err == nil {
		log.Fatal("the real runtime accepted afs-le")
	}

	// Simulated Iris view (Fig 6's machine).
	fmt.Println()
	m := repro.Iris()
	simTab := stats.NewTable(
		fmt.Sprintf("same input — simulated %s, 8 processors (cf. Fig 6)", m.Name),
		"algorithm", "sim time (s)", "steals", "migrated iters")
	for _, name := range append(algos, "afs-le") {
		spec, err := repro.SchedulerByName(name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := repro.Simulate(m, 8, spec,
			kernels.TClosure{Input: input}.Program(m))
		if err != nil {
			log.Fatal(err)
		}
		simTab.AddRow(name, stats.FormatSeconds(res.Seconds),
			fmt.Sprint(res.Steals), fmt.Sprint(res.MigratedIters))
	}
	simTab.Render(os.Stdout)
}
