package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

const testScale = 0.0002

func testConfig() Config {
	return Config{
		System:     logrec.Liberty,
		Seed:       7,
		Scale:      testScale,
		BatchLines: 50,
	}
}

// TestPlanDeterminism pins the loadgen reproducibility contract: the
// same seed + workload config produces an identical offered-load
// schedule and identical synthetic record stream, no matter how many
// clients the harness uses.
func TestPlanDeterminism(t *testing.T) {
	base := testConfig()

	cfgA := base
	cfgA.Ingesters = 2
	cfgA.Queriers = 1

	cfgB := base
	cfgB.Ingesters = 16
	cfgB.Queriers = 8

	planA, err := BuildPlan(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	planB, err := BuildPlan(cfgB)
	if err != nil {
		t.Fatal(err)
	}

	if fa, fb := planA.Fingerprint(), planB.Fingerprint(); fa != fb {
		t.Fatalf("plan fingerprint differs across client counts: %s vs %s", fa, fb)
	}
	if len(planA.Batches) != len(planB.Batches) {
		t.Fatalf("batch counts differ: %d vs %d", len(planA.Batches), len(planB.Batches))
	}
	for i := range planA.Batches {
		if planA.Batches[i].Body() != planB.Batches[i].Body() {
			t.Fatalf("batch %d content differs", i)
		}
	}
	if len(planA.Steps) != len(planB.Steps) {
		t.Fatalf("schedules differ in length")
	}
	for i := range planA.Steps {
		if planA.Steps[i] != planB.Steps[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, planA.Steps[i], planB.Steps[i])
		}
	}
	for i := range planA.Queries {
		if planA.Queries[i] != planB.Queries[i] {
			t.Fatalf("query %d differs: %+v vs %+v", i, planA.Queries[i], planB.Queries[i])
		}
	}

	// A different seed must change the content.
	cfgC := base
	cfgC.Seed = 8
	planC, err := BuildPlan(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	if planA.Fingerprint() == planC.Fingerprint() {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestPlanSchedule(t *testing.T) {
	cfg := testConfig()
	cfg.StepDuration = time.Second
	cfg.RampSteps = 3
	cfg.StartRate = 2
	cfg.RampFactor = 2
	p, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []Step{
		{Offered: 0, Duration: time.Second},
		{Offered: 2, Duration: time.Second},
		{Offered: 4, Duration: time.Second},
		{Offered: 8, Duration: time.Second},
	}
	if len(p.Steps) != len(want) {
		t.Fatalf("got %d steps, want %d", len(p.Steps), len(want))
	}
	for i := range want {
		if p.Steps[i] != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, p.Steps[i], want[i])
		}
	}
	for i, b := range p.Batches {
		if len(b.Lines) != len(b.Sources) {
			t.Fatalf("batch %d: %d lines but %d sources", i, len(b.Lines), len(b.Sources))
		}
	}
}

func TestFindKnee(t *testing.T) {
	mk := func(mode string, offered, achieved float64, reqs, ok int64) StepReport {
		return StepReport{Mode: mode, OfferedPerSec: offered, AchievedPerSec: achieved,
			Ingest: PathStats{Requests: reqs, OK: ok}}
	}
	steps := []StepReport{
		mk("closed", 0, 50, 100, 100),
		mk("open", 4, 4, 8, 8),
		mk("open", 8, 7.9, 16, 16),
		mk("open", 16, 9, 32, 20),
	}
	sat := FindKnee(steps, 0.9, 0.1)
	if sat == nil {
		t.Fatal("knee not found")
	}
	if sat.OfferedPerSec != 16 {
		t.Fatalf("knee at offered %v, want 16", sat.OfferedPerSec)
	}
	if FindKnee(steps[:3], 0.9, 0.1) != nil {
		t.Fatal("found a knee in an unsaturated ramp")
	}
}

// TestRunnerAgainstStub drives the full runner against a scripted
// server: the first ingest attempt of every third batch gets a 429
// naming one rejected source, and the retry must carry only that
// source's lines.
func TestRunnerAgainstStub(t *testing.T) {
	cfg := testConfig()
	cfg.Ingesters = 3
	cfg.Queriers = 2
	cfg.StepDuration = 300 * time.Millisecond
	cfg.RampSteps = 1
	cfg.StartRate = 20
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var ingests, queries atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/ingest" {
			queries.Add(1)
			fmt.Fprint(w, `{}`)
			return
		}
		body, _ := io.ReadAll(r.Body)
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		n := ingests.Add(1)
		if n%3 == 0 && len(lines) > 1 {
			// Reject the first line's source; accept the rest.
			src := sourceOfLine(t, plan, lines[0])
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{
				"appended":         len(lines) - 1,
				"rejected":         map[string]int{"0": 1},
				"rejected_sources": map[string][]string{"0": {src}},
			})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"appended": len(lines)})
	}))
	defer srv.Close()

	runner := &Runner{Plan: plan, BaseURL: srv.URL}
	rep, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(rep.Steps))
	}
	if rep.Steps[0].Mode != "closed" || rep.Steps[1].Mode != "open" {
		t.Fatalf("step modes wrong: %s/%s", rep.Steps[0].Mode, rep.Steps[1].Mode)
	}
	total := rep.Steps[0].Ingest.Requests + rep.Steps[1].Ingest.Requests
	if total == 0 {
		t.Fatal("no ingest requests recorded")
	}
	if rep.Steps[0].Ingest.OK == 0 || rep.Steps[0].RecordsAppended == 0 {
		t.Fatalf("closed step recorded no successes: %+v", rep.Steps[0])
	}
	if rep.Steps[0].Ingest.Backpressure429 == 0 {
		t.Fatalf("stub 429s not observed: %+v", rep.Steps[0].Ingest)
	}
	if got := rep.Steps[0].Ingest.LatencyQuantiles["p50"]; got <= 0 {
		t.Fatalf("p50 latency missing: %+v", rep.Steps[0].Ingest.LatencyQuantiles)
	}
	if rep.PlanFingerprint != plan.Fingerprint() {
		t.Fatal("report does not carry the plan fingerprint")
	}
	if rep.Steps[0].RejectedSourceHits == 0 && rep.Steps[1].RejectedSourceHits == 0 {
		t.Fatal("retry loop never filtered rejected sources")
	}
}

// sourceOfLine maps a wire line back to its planned source.
func sourceOfLine(t *testing.T, plan *Plan, line string) string {
	t.Helper()
	for _, b := range plan.Batches {
		for i, ln := range b.Lines {
			if ln == line {
				return b.Sources[i]
			}
		}
	}
	t.Fatalf("line not in plan: %q", line)
	return ""
}
