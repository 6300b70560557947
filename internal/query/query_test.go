package query

import (
	"encoding/json"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/store"
)

// fixture builds a tiny hand-checkable entry set: four BG/L alerts over
// 1s, 10s, 100s gaps, two categories, three sources.
func fixture() []store.Entry {
	base := time.Date(2005, 6, 1, 12, 0, 0, 0, time.UTC)
	mk := func(seq uint64, at time.Duration, src, cat string, kept bool) store.Entry {
		return store.Entry{
			Record: logrec.Record{
				Seq: seq, Time: base.Add(at), System: logrec.BlueGeneL,
				Source: src, Severity: logrec.SevFatal,
			},
			Category: cat,
			Kept:     kept,
		}
	}
	return []store.Entry{
		mk(0, 0, "R23-M0", "KERNDTLB", true),
		mk(1, 1*time.Second, "R23-M0", "KERNDTLB", false),
		mk(2, 11*time.Second, "R23-M1", "KERNDTLB", true),
		mk(3, 111*time.Second, "R24-M0", "APPSEV", true),
	}
}

func TestAggregateFixture(t *testing.T) {
	agg := Aggregate(fixture(), AggregateOptions{TopK: 2, Quantiles: []float64{0.5}})
	if agg.Total != 4 || agg.Kept != 3 || agg.Removed != 1 {
		t.Fatalf("counts: %+v", agg)
	}
	if agg.ReductionRatio != 0.25 {
		t.Errorf("reduction ratio = %v, want 0.25", agg.ReductionRatio)
	}
	if agg.Categories != 2 || agg.ByCategory["KERNDTLB"] != 3 || agg.ByCategory["APPSEV"] != 1 {
		t.Errorf("categories: %+v", agg.ByCategory)
	}
	// KERNDTLB is a real BG/L hardware category; APPSEV is software.
	if agg.ByType["H"] != 3 || agg.ByType["S"] != 1 {
		t.Errorf("types: %+v", agg.ByType)
	}
	if agg.BySeverity["FATAL"] != 4 {
		t.Errorf("severities: %+v", agg.BySeverity)
	}
	if len(agg.TopSources) != 2 || agg.TopSources[0] != (SourceCount{Source: "R23-M0", Count: 2}) {
		t.Errorf("top sources: %+v", agg.TopSources)
	}
	ia := agg.Interarrival
	if ia == nil || ia.Count != 3 {
		t.Fatalf("interarrival: %+v", ia)
	}
	if ia.MinSec != 1 || ia.MaxSec != 100 || ia.Quantiles[0].Sec != 10 {
		t.Errorf("gap stats: %+v", ia)
	}
	// Gaps 1, 10, 100 land in the first bin of decades 0, 1, and 2.
	h := ia.LogHist
	if h.Counts[0] != 1 || h.Counts[2] != 1 || h.Counts[4] != 1 {
		t.Errorf("log hist: %+v", h)
	}
}

func TestAggregateEmptyAndSingleton(t *testing.T) {
	agg := Aggregate(nil, AggregateOptions{})
	if agg.Total != 0 || agg.ReductionRatio != 0 || agg.Interarrival != nil {
		t.Errorf("empty aggregate: %+v", agg)
	}
	agg = Aggregate(fixture()[:1], AggregateOptions{})
	if agg.Total != 1 || agg.Interarrival != nil {
		t.Errorf("singleton aggregate: %+v", agg)
	}
}

func TestAggregateJSONDeterminism(t *testing.T) {
	a, err := json.Marshal(Aggregate(fixture(), AggregateOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Aggregate(fixture(), AggregateOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("aggregation JSON is not deterministic")
	}
}

func TestEngineSelectOrdersAndLimits(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(dir, logrec.BlueGeneL, store.Options{FlushEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Append out of canonical order: the engine must restore it.
	fx := fixture()
	if err := st.Append(fx[3], fx[1], fx[0], fx[2]); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Store: st}
	got, stt, err := eng.Select(store.Filter{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || stt.Matched != 4 {
		t.Fatalf("select: %d entries, stats %+v", len(got), stt)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Record.Before(&got[i-1].Record) {
			t.Fatal("select output not in canonical order")
		}
	}
	limited, _, err := eng.Select(store.Filter{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 2 || limited[0].Record.Seq != 0 {
		t.Fatalf("limit: %+v", limited)
	}
}

func TestEngineAggregateMatchesPureFunction(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(dir, logrec.BlueGeneL, store.Options{FlushEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(fixture()...); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Store: st}
	got, _, err := eng.Aggregate(store.Filter{}, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := Aggregate(fixture(), AggregateOptions{})
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("engine aggregate diverges from pure function:\n%s\n%s", gj, wj)
	}
}
