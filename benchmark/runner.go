package main

import (
	"fmt"
	"io"
	"sort"
)

// runner drives slices and ladders and turns their results into reports.
// slice and ladder run in child processes in every measured run; the smoke
// test substitutes in-process calls.
type runner struct {
	cat    *catalog
	cfg    sliceConfig // seed, seconds, scale and output directory of the run
	w      io.Writer
	slice  func(sliceConfig) (*sliceResult, error)
	ladder func(sliceConfig) (map[string]float64, error)
}

// report is one workload's result: every metric of one catalogue list.
type report struct {
	metrics   map[string]metricValue
	samples   map[string]int // timed samples behind a metric, where it has any
	also      string         // measured but not part of the printed catalogue list
	attempted int64
	failed    int64
	slices    []*sliceResult
}

// contractResult is the JSON object a contract run prints last.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (p *report) contract() contractResult {
	return contractResult{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: p.metrics}
}

// measure runs the untraced rounds. Rounds are the outer loop, so the
// workloads interleave and a long slow spell of the host lands on at most
// a quarter of any workload's windows.
func (r *runner) measure(workloads []string) (map[string]*report, error) {
	slices := map[string][]*sliceResult{}
	for round := 0; round < roundsPerRun; round++ {
		for _, name := range workloads {
			cfg := r.cfg
			cfg.Workload, cfg.Round, cfg.Trace = name, round, false
			res, err := r.slice(cfg)
			if err != nil {
				return nil, err
			}
			slices[name] = append(slices[name], res)
		}
	}
	reports := map[string]*report{}
	for _, name := range workloads {
		rep, err := r.endToEnd(slices[name])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		reports[name] = rep
	}
	return reports, nil
}

// summary is everything one workload's slices measured. Timings are at
// the reference speed (ref.go). Those of the windows come from the clean
// quarter of the run: the windows of all slices that the clock saw run
// fastest, where the host interfered least, and of those the median.
// Set-up is the median over the slices.
type summary struct {
	setup       float64
	throughput  float64
	rawThr      float64 // median of all windows as the clock saw them, not calibrated
	meanThr     float64 // work of all windows over their total time, not calibrated
	cpuPerOp    float64 // process CPU microseconds per unit of work, both cores
	p50, p99    [numClasses]float64
	samples     [numClasses]int
	windows     int // windows of the clean quarter
	bytesPerKey float64
	ref         [refLoops]float64 // median probe readings around all windows
	slowdown    float64           // median slowdown of all windows
}

// cleanShare is the share of a run's windows the timed metrics are taken
// from.
const cleanShare = 0.25

func summarize(slices []*sliceResult) summary {
	var m summary
	var all []windowResult
	var raw, slows, bpk, setups []float64
	var refs [refLoops][]float64
	var work, seconds float64
	for _, s := range slices {
		bpk = append(bpk, s.BytesPerKey)
		var total, slow float64
		for _, d := range s.SetupPhases {
			total += d
		}
		for _, r := range s.SetupRefs {
			slow += r.slowdown() / float64(len(s.SetupRefs))
		}
		setups = append(setups, total/slow)
		for _, win := range s.Windows {
			all = append(all, win)
			work, seconds = work+float64(win.Work), seconds+win.Seconds
			raw = append(raw, win.rate())
			slows = append(slows, win.Ref.slowdown())
			for l, v := range win.Ref {
				refs[l] = append(refs[l], v)
			}
		}
	}
	m.setup, m.bytesPerKey = median(setups), median(bpk)
	m.rawThr, m.meanThr, m.slowdown = median(raw), work/seconds, median(slows)
	for l := range refs {
		m.ref[l] = median(refs[l])
	}

	sort.SliceStable(all, func(i, j int) bool { return all[i].rate() > all[j].rate() })
	clean := all[:max(int(float64(len(all))*cleanShare), min(len(all), 1))]
	var thr, cpu []float64
	var p50, p99 [numClasses][]float64
	for _, win := range clean {
		slow := win.Ref.slowdown()
		thr = append(thr, win.rate()*slow)
		cpu = append(cpu, win.CPU*1e6/float64(win.Work)/slow)
		for c := 0; c < numClasses; c++ {
			if win.Samples[c] > 0 {
				p50[c] = append(p50[c], win.P50[c]/slow)
				p99[c] = append(p99[c], win.P99[c]/slow)
				m.samples[c] += win.Samples[c]
			}
		}
	}
	m.throughput, m.cpuPerOp, m.windows = median(thr), median(cpu), len(clean)
	for c := 0; c < numClasses; c++ {
		m.p50[c], m.p99[c] = median(p50[c]), median(p99[c])
	}
	return m
}

// endToEnd computes the end-to-end metrics of one workload's slices.
func (r *runner) endToEnd(slices []*sliceResult) (*report, error) {
	m := summarize(slices)
	rep := &report{slices: slices, samples: map[string]int{
		"setup_s": len(slices), "bytes_per_key": len(slices), "throughput_ops_s": m.windows,
		"read_p50_us": m.samples[classRead], "write_p50_us": m.samples[classWrite],
	}}
	for _, s := range slices {
		rep.attempted += s.Attempted
		rep.failed += s.Failed
	}
	rep.also = fmt.Sprintf("read_p99_us=%.3f write_p99_us=%.3f scan_p50_us=%.3f scan_p99_us=%.3f cpu_us_per_op=%.4f raw_ops_s=%.0f host_slowdown=%.3f",
		m.p99[classRead], m.p99[classWrite], m.p50[classScan], m.p99[classScan], m.cpuPerOp, m.rawThr, m.slowdown)
	var err error
	rep.metrics, err = render(r.cat.EndToEnd, map[string]float64{
		"setup_s":          m.setup,
		"throughput_ops_s": m.throughput,
		"read_p50_us":      m.p50[classRead],
		"write_p50_us":     m.p50[classWrite],
		"bytes_per_key":    m.bytesPerKey,
	})
	return rep, err
}

// traced is the separate traced run of one workload: an untraced slice for
// reference, the same slice again with spans on, the layer ladder on the
// workload's keys, and a slice of net-durable, whose end-to-end numbers
// are diagnostics here because on the reference host they do not repeat
// within any bound the contract admits (NOISE.md). Nothing in this run
// feeds an end-to-end metric.
func (r *runner) traced(name string) (*report, error) {
	cfg := r.cfg
	cfg.Workload, cfg.Round, cfg.Trace = name, 0, false
	plain, err := r.slice(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Trace = true
	tr, err := r.slice(cfg)
	if err != nil {
		return nil, err
	}
	values, err := r.ladder(cfg)
	if err != nil {
		return nil, err
	}
	ran, served := []*sliceResult{plain, tr}, tr
	if name != wlNetDurable {
		cfg.Workload = wlNetDurable
		if served, err = r.slice(cfg); err != nil {
			return nil, err
		}
		ran = append(ran, served)
	}

	// Counters of the traced slice's own index, read through StatsMap or
	// STATS after the windows.
	st := tr.Stats
	for metric, key := range map[string]string{
		"core.models": "models", "core.retrains": "retrains", "core.retrain_drops": "retrain_drops",
		"core.retrain_freeze_max_ns": "retrain_freeze_max_ns", "core.writer_spins": "writer_spins",
		"core.fp_entries": "fp_entries", "arena.live_bytes": "arena_live_bytes",
		"arena.retained_bytes": "arena_retained_bytes", "arena.chunk_reuses": "arena_chunk_reuses",
		"arena.limbo_bytes": "limbo_bytes", "arena.reclaims": "reclaims",
	} {
		values[metric] = float64(st[key])
	}
	values["core.art_keys_frac"] = float64(st["art_keys"]) / float64(max(st["art_keys"]+st["learned_keys"], 1))

	pm, tm, nm := summarize([]*sliceResult{plain}), summarize([]*sliceResult{tr}), summarize([]*sliceResult{served})
	values["trace.overhead_frac"] = tm.throughput/pm.throughput - 1
	// Tail and scan latency and CPU cost of the untraced slice. They are
	// diagnostics, not end-to-end metrics: tails repeat worst of all on the
	// reference host, and only mem-range has scans (0 elsewhere).
	values["e2e.read_p99_us"], values["e2e.write_p99_us"] = pm.p99[classRead], pm.p99[classWrite]
	values["e2e.scan_p50_us"], values["e2e.scan_p99_us"] = pm.p50[classScan], pm.p99[classScan]
	values["e2e.cpu_us_per_op"] = pm.cpuPerOp
	// The same slice as the clock saw it, not calibrated: its median
	// window, and the work of all its windows over their total time. With
	// the probe readings they let a reader undo the calibration.
	values["e2e.raw_ops_s"], values["e2e.mean_ops_s"] = pm.rawThr, pm.meanThr
	values["host.slowdown"] = pm.slowdown
	for l, name := range refNames {
		values["host.ref_"+name+"_ns"] = pm.ref[l]
	}
	values["e2e.net-durable.setup_s"] = nm.setup
	values["e2e.net-durable.throughput_ops_s"] = nm.throughput
	values["e2e.net-durable.read_p50_us"], values["e2e.net-durable.read_p99_us"] = nm.p50[classRead], nm.p99[classRead]
	values["e2e.net-durable.write_p50_us"], values["e2e.net-durable.write_p99_us"] = nm.p50[classWrite], nm.p99[classWrite]
	values["e2e.net-durable.bytes_per_key"] = nm.bytesPerKey

	rep := &report{
		samples: map[string]int{
			"e2e.read_p99_us": pm.samples[classRead], "e2e.write_p99_us": pm.samples[classWrite],
			"e2e.scan_p50_us": pm.samples[classScan], "e2e.scan_p99_us": pm.samples[classScan],
		},
		slices: []*sliceResult{plain, tr},
	}
	for _, s := range ran {
		rep.attempted += s.Attempted
		rep.failed += s.Failed
	}
	if rep.metrics, err = render(r.cat.PerLayer, values); err != nil {
		return nil, err
	}
	r.print(name, rep, r.cat.PerLayer)
	for _, s := range ran[1:] {
		printLayerTable(r.w, s.Workload, s.Spans)
		fmt.Fprintf(r.w, "spans written to %s\n", s.SpanFile)
	}
	return rep, nil
}

// print lists a report's metrics by name with unit, direction, sample
// count and bound, then the verifier's counts.
func (r *runner) print(name string, rep *report, specs []metricSpec) {
	s0 := rep.slices[0]
	fmt.Fprintf(r.w, "%s: keys=%d windows=%dx%d ops/window=%d len=%d", name, s0.Keys, len(rep.slices), len(s0.Windows), s0.WindowOps, s0.Len)
	// Background work per window: what the program did beside the driver
	// while the windows ran.
	var retrains, gcs float64
	for _, s := range rep.slices {
		retrains += float64(s.Retrains) / float64(len(s.Windows)*len(rep.slices))
		gcs += float64(s.GCCycles) / float64(len(s.Windows)*len(rep.slices))
	}
	fmt.Fprintf(r.w, " retrains/window=%.2f gc/window=%.2f", retrains, gcs)
	info := make([]string, 0, len(s0.Info))
	for k := range s0.Info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Fprintf(r.w, " %s=%s", k, s0.Info[k])
	}
	fmt.Fprintln(r.w)
	for _, spec := range specs {
		m := rep.metrics[spec.Name]
		fmt.Fprintf(r.w, "  %-12s %-34s %18.6f %-6s %-6s", name, spec.Name, m.Value, m.Unit, spec.Better)
		if n, ok := rep.samples[spec.Name]; ok {
			fmt.Fprintf(r.w, " n=%-8d", n)
		}
		if spec.Bound > 0 {
			fmt.Fprintf(r.w, " bound=%.2f", spec.Bound)
		}
		fmt.Fprintln(r.w)
	}
	if rep.also != "" {
		fmt.Fprintf(r.w, "  %-12s also (ungated, see the traced run): %s\n", name, rep.also)
	}
	fmt.Fprintf(r.w, "  %-12s attempted=%d failed=%d\n", name, rep.attempted, rep.failed)
}
