package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Bucket is one cumulative histogram bucket in a snapshot: Count
// observations were at most LE (in the histogram's export unit).
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the exportable state of one histogram.
type HistogramSnapshot struct {
	Unit    string   `json:"unit,omitempty"`
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// the payload of the `-metrics` JSON file.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// snapshotHistogram freezes one histogram.
func snapshotHistogram(h *Histogram) HistogramSnapshot {
	s := HistogramSnapshot{
		Unit:  h.unit.String(),
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	var cum int64
	for i := 0; i <= histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		// LE is the bucket's exclusive upper bound 2^i (0 for the v<=0
		// bucket), scaled into the export unit.
		le := 0.0
		if i > 0 {
			le = h.unit.scale(float64(int64(1) << i))
		}
		s.Buckets = append(s.Buckets, Bucket{LE: le, Count: cum})
	}
	return s
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = snapshotHistogram(h)
	}
	return s
}

// WriteJSONFile writes the snapshot to path, pretty-printed.
func (r *Registry) WriteJSONFile(path string) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// splitName separates an embedded label clause from a metric name:
// `x_total{a="b"}` → ("x_total", `a="b"`). Names without a clause
// return empty labels.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// promLabels joins an embedded label clause with an extra label.
func promLabels(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	default:
		return "{" + labels + "," + extra + "}"
	}
}

// sortedKeys returns map keys in lexical order, for stable exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters, gauges, and cumulative-bucket
// histograms, with embedded label clauses preserved.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	typed := map[string]bool{}
	typeLine := func(base, kind string) {
		if !typed[base] {
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
			typed[base] = true
		}
	}
	for _, name := range sortedKeys(counters) {
		base, labels := splitName(name)
		typeLine(base, "counter")
		fmt.Fprintf(w, "%s%s %d\n", base, promLabels(labels, ""), counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		base, labels := splitName(name)
		typeLine(base, "gauge")
		fmt.Fprintf(w, "%s%s %g\n", base, promLabels(labels, ""), gauges[name].Value())
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		base, labels := splitName(name)
		typeLine(base, "histogram")
		var cum int64
		for i := 0; i <= histBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			cum += n
			le := 0.0
			if i > 0 {
				le = h.unit.scale(float64(int64(1) << i))
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", base, promLabels(labels, fmt.Sprintf("le=%q", fmt.Sprintf("%g", le))), cum)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", base, promLabels(labels, `le="+Inf"`), h.Count())
		fmt.Fprintf(w, "%s_sum%s %g\n", base, promLabels(labels, ""), h.Sum())
		fmt.Fprintf(w, "%s_count%s %d\n", base, promLabels(labels, ""), h.Count())
	}
}

// StageSummary is one row of the human-readable stage table: the
// aggregate of every span of one stage.
type StageSummary struct {
	Stage    string
	Count    int64
	TotalSec float64
	MeanSec  float64
	P50Sec   float64
	P99Sec   float64
}

// StageSummaries aggregates the `stage_*_seconds` span histograms,
// sorted by total time descending (the expensive stages first).
func (r *Registry) StageSummaries() []StageSummary {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	var out []StageSummary
	for name, h := range r.hists {
		base, _ := splitName(name)
		if !strings.HasPrefix(base, "stage_") || !strings.HasSuffix(base, "_seconds") {
			continue
		}
		if h.Count() == 0 {
			continue
		}
		s := StageSummary{
			Stage:    strings.TrimSuffix(strings.TrimPrefix(base, "stage_"), "_seconds"),
			Count:    h.Count(),
			TotalSec: h.Sum(),
			P50Sec:   h.Quantile(0.50),
			P99Sec:   h.Quantile(0.99),
		}
		s.MeanSec = s.TotalSec / float64(s.Count)
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalSec != out[j].TotalSec {
			return out[i].TotalSec > out[j].TotalSec
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// WriteSummary renders the stage table and the non-zero counters — the
// verbose-mode view printed by `logstudy ingest -v`.
func (r *Registry) WriteSummary(w io.Writer) {
	stages := r.StageSummaries()
	if len(stages) > 0 {
		fmt.Fprintf(w, "%-12s %8s %12s %12s %12s %12s\n",
			"stage", "runs", "total", "mean", "p50", "p99")
		for _, s := range stages {
			fmt.Fprintf(w, "%-12s %8d %12s %12s %12s %12s\n",
				s.Stage, s.Count,
				fmtSeconds(s.TotalSec), fmtSeconds(s.MeanSec),
				fmtSeconds(s.P50Sec), fmtSeconds(s.P99Sec))
		}
	}
	snap := r.Snapshot()
	first := true
	for _, name := range sortedKeys(snap.Counters) {
		v := snap.Counters[name]
		if v == 0 {
			continue
		}
		if first {
			fmt.Fprintln(w, "\ncounters:")
			first = false
		}
		fmt.Fprintf(w, "  %-44s %d\n", name, v)
	}
}

// fmtSeconds renders a duration in seconds with a sensible magnitude.
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-6:
		return fmt.Sprintf("%.0fns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
