package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json declares it. The file is the
// only catalogue: units, directions and bounds are read from it, so what
// the benchmark prints cannot drift from what the contract names.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type catalog struct {
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// loadCatalog reads BENCHMARK.json from the checkout root (the working
// directory of a contract run) or its parent (go test runs in benchmark/).
func loadCatalog() (*catalog, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var c catalog
		if err := json.Unmarshal(b, &c); err != nil {
			return nil, fmt.Errorf("parse %s: %w", p, err)
		}
		return &c, nil
	}
	return nil, fmt.Errorf("load catalogue: %w", firstErr)
}

// metricValue is one reported number in the contract's result shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render pairs measured values with the catalogue's specs. A value the
// catalogue does not name, or a named metric left unmeasured, is a harness
// error: the run must not print a result the driver would misread.
func render(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics missing from BENCHMARK.json: %v", extra)
	}
	return out, nil
}
