package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads back:
// the bounds -selfcheck compares against.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// selfcheck runs the whole benchmark twice on the same code and prints,
// for every end-to-end metric of every workload, how far the second run
// is from the first as a share of the first, beside the metric's bound.
// A difference beyond the bound means the instrument, not the code, is
// what moved.
func selfcheck(r *runner, o options) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	var runs [2]*fullReport
	for i := range runs {
		fmt.Fprintf(os.Stderr, "selfcheck: run %d of 2\n", i+1)
		if runs[i], err = runAll(r, o); err != nil {
			return err
		}
	}
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		First    float64 `json:"first"`
		Second   float64 `json:"second"`
		RelDiff  float64 `json:"rel_diff"`
		Bound    float64 `json:"bound"`
		Within   bool    `json:"within_bound"`
	}
	var rows []row
	ok := true
	for wi, w := range runs[0].Workloads {
		for _, m := range bf.EndToEnd {
			a := w.EndToEnd.Metrics[m.Name].Value
			b := runs[1].Workloads[wi].EndToEnd.Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			within := worse <= m.Bound
			ok = ok && within
			rows = append(rows, row{w.Name, m.Name, a, b, worse, m.Bound, within})
		}
	}
	if err := printJSON(map[string]any{"environment": runs[0].Env, "seed": o.seed, "all_within_bounds": ok, "rows": rows}, true); err != nil {
		return err
	}
	if !ok {
		return errors.New("selfcheck: two runs of the same code differ by more than a bound")
	}
	return nil
}

// spread runs each workload at o.spread seeds and takes, for every
// end-to-end metric, the distance between the first and third quartile
// of its values as a share of their median, which is how the driver
// decides whether the benchmark is steady enough to gate on. A metric is
// steady when that spread is within a third of its bound; the driver
// refuses the benchmark when it is beyond the bound.
func spread(r *runner, o options) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Median   float64   `json:"median"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound"`
		Verdict  string    `json:"verdict"`
		Values   []float64 `json:"values"`
	}
	var rows []row
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		sp, err := specFor(w.name, o.quick)
		if err != nil {
			return err
		}
		values := map[string][]float64{}
		for i := 0; i < o.spread; i++ {
			run := &runner{h: r.h, clients: r.clients, seed: o.seed + int64(i)}
			rep, err := run.runEndToEnd(sp, o.seconds, minReps)
			if err != nil {
				return err
			}
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, m := range bf.EndToEnd {
			xs := values[m.Name]
			s := relSpread(xs)
			verdict := "steady"
			switch {
			case m.Name == "setup_s":
				verdict = "exempt"
			case s > m.Bound:
				verdict = "over the bound"
			case s > m.Bound/3:
				verdict = "within the bound, over a third of it"
			}
			rows = append(rows, row{w.name, m.Name, median(xs), s, m.Bound, verdict, xs})
		}
	}
	return printJSON(map[string]any{"environment": environmentOf(r, o), "seeds": o.spread, "first_seed": o.seed, "seconds": o.seconds, "rows": rows}, true)
}
