package main

import "fmt"

// Two sets of five suite runs. Both sets use the same five seeds, so the
// gap between their medians is run-to-run noise alone, with no share from
// the difference between seeds.
const (
	selfcheckSets = 2
	selfcheckRuns = 5
)

// worsening is how far b is worse than a, as a share of a, in the metric's
// own direction.
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck runs the suite as two sets of five and prints, per workload and
// end-to-end metric, each set's median, quartiles and spread (the distance
// between the quartiles over the median), the gap between the set medians,
// and PASS or FAIL: both spreads and the gap must stay within the metric's
// bound. The output is markdown; NOISE.md holds a committed copy.
func (r *runner) selfcheck(workloads []string) error {
	r.header()
	// values[workload][metric] holds one number per run, set A first.
	values := map[string]map[string][]float64{}
	lens := map[string][]int{}
	var failed int64
	base := r.cfg.Seed
	for run := 0; run < selfcheckSets*selfcheckRuns; run++ {
		r.cfg.Seed = base + uint64(run%selfcheckRuns)
		reports, err := r.measure(workloads)
		if err != nil {
			return err
		}
		for name, rep := range reports {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, m := range rep.metrics {
				values[name][metric] = append(values[name][metric], m.Value)
			}
			failed += rep.failed
			lens[name] = append(lens[name], rep.slices[0].Len)
		}
		fmt.Fprintf(r.w, "set %c run %d/%d (seed %d) done\n", 'A'+run/selfcheckRuns, run%selfcheckRuns+1, selfcheckRuns, r.cfg.Seed)
	}

	fmt.Fprintf(r.w, "\n| workload | metric | bound | set A median [q1, q3] | set B median [q1, q3] | A spread | B spread | B worse than A by | verdict |\n")
	fmt.Fprintf(r.w, "|---|---|---|---|---|---|---|---|---|\n")
	pass := true
	gated := map[string]bool{}
	for _, w := range r.cat.Workloads {
		gated[w.Name] = true
	}
	for _, name := range workloads {
		for _, spec := range r.cat.EndToEnd {
			all := values[name][spec.Name]
			a, b := all[:selfcheckRuns], all[selfcheckRuns:]
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			aSpread, bSpread := (aq3-aq1)/median(a), (bq3-bq1)/median(b)
			gap := worsening(spec, median(a), median(b))
			ok := gap <= spec.Bound && -gap <= spec.Bound && aSpread <= spec.Bound && bSpread <= spec.Bound
			verdict := "PASS"
			if !ok {
				verdict = "FAIL"
			}
			if !gated[name] {
				verdict = "ungated, would " + verdict
			} else if !ok {
				pass = false
			}
			fmt.Fprintf(r.w, "| %s | %s | %.2f | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.4f | %.4f | %+.4f | %s |\n",
				name, spec.Name, spec.Bound, median(a), aq1, aq3, median(b), bq1, bq3, aSpread, bSpread, gap, verdict)
		}
	}

	// Fixed work makes the counted quantities repeat for a seed, exactly
	// where no background work decides the layout.
	fmt.Fprintln(r.w)
	for _, name := range workloads {
		bpk := values[name]["bytes_per_key"]
		same := 0
		for i := 0; i < selfcheckRuns; i++ {
			if bpk[i] == bpk[i+selfcheckRuns] && lens[name][i] == lens[name][i+selfcheckRuns] {
				same++
			}
		}
		fmt.Fprintf(r.w, "- %s: bytes_per_key and Len bit-identical in both runs of %d of %d seeds (seed %d: %.6f and %.6f B, Len %d and %d)\n",
			name, same, selfcheckRuns, base, bpk[0], bpk[selfcheckRuns], lens[name][0], lens[name][selfcheckRuns])
	}
	fmt.Fprintf(r.w, "- failed operations over all runs: %d\n", failed)
	if !pass {
		fmt.Fprintln(r.w, "\nself-check: FAIL")
	} else {
		fmt.Fprintln(r.w, "\nself-check: PASS")
	}
	return nil
}
