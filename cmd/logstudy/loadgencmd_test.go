package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whatsupersay/internal/loadgen"
)

// loadgenTestArgs is a small seeded run against a self-hosted 4-shard
// serve tier: closed warmup + 2 ramp steps, about a second.
func loadgenTestArgs(extra ...string) []string {
	return append([]string{
		"-shards", "4",
		"-system", "liberty",
		"-scale", "0.0002",
		"-seed", "5",
		"-ingesters", "3",
		"-queriers", "2",
		"-batch-lines", "50",
		"-step", "300ms",
		"-ramp-steps", "2",
		"-start-rate", "8",
		"-ramp-factor", "2",
	}, extra...)
}

// readLoadReport decodes path as exactly one standalone loadgen.Report:
// unknown fields (a ledger wrapper, say) and trailing data both fail.
func readLoadReport(t *testing.T, path string) loadgen.Report {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rep loadgen.Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s is not a loadgen.Report: %v", path, err)
	}
	if dec.More() {
		t.Fatalf("%s holds more than one JSON value", path)
	}
	return rep
}

// TestLoadgenEndToEndSharded is the acceptance run: the loadgen
// subcommand self-hosts a 4-shard serve tier in-process, completes the
// seeded closed-loop warmup plus open-loop ramp against it, and -o
// writes that run's report as standalone JSON. A second run to the same
// path overwrites the file; nothing is read back or merged.
func TestLoadgenEndToEndSharded(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "load.json")
	args := loadgenTestArgs("-o", outPath)
	var out bytes.Buffer
	if err := runLoadgen(args, &out); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out.String())
	}
	for _, want := range []string{"plan:", "self-hosted liberty", "load report written to " + outPath} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}

	rep := readLoadReport(t, outPath)
	if rep.System != "liberty" || rep.Shards != 4 || rep.Ingesters != 3 || rep.Queriers != 2 {
		t.Fatalf("report shape: %+v", rep)
	}
	if rep.PlanFingerprint == "" || rep.Cores < 1 {
		t.Fatalf("report missing fingerprint or cores: %+v", rep)
	}
	if !strings.Contains(out.String(), "fingerprint "+rep.PlanFingerprint) {
		t.Fatalf("report fingerprint %s is not the printed plan's:\n%s", rep.PlanFingerprint, out.String())
	}
	if len(rep.Steps) != 3 { // closed warmup + 2 ramp steps
		t.Fatalf("steps: %d, want 3", len(rep.Steps))
	}
	if rep.Steps[0].Mode != "closed" {
		t.Fatalf("step 0 mode %q", rep.Steps[0].Mode)
	}
	var ingestOK, queryOK int64
	for i, s := range rep.Steps {
		if i > 0 && (s.Mode != "open" || s.OfferedPerSec <= 0) {
			t.Fatalf("ramp step %d: %+v", i, s)
		}
		ingestOK += s.Ingest.OK
		queryOK += s.Query.OK
		if s.Ingest.OK > 0 {
			if _, ok := s.Ingest.LatencyQuantiles["p50"]; !ok {
				t.Fatalf("step %d missing ingest p50: %+v", i, s.Ingest.LatencyQuantiles)
			}
		}
	}
	if ingestOK == 0 || queryOK == 0 {
		t.Fatalf("no successful traffic: ingest %d, query %d", ingestOK, queryOK)
	}
	// The knee verdict on stdout and in the file are the same verdict.
	if k := rep.Saturation; k != nil {
		if k.StepIndex < 1 || k.StepIndex >= len(rep.Steps) || k.Reason == "" {
			t.Fatalf("knee: %+v", k)
		}
		if !strings.Contains(out.String(), fmt.Sprintf("saturation knee: step %d", k.StepIndex)) {
			t.Fatalf("knee in report (step %d) but not on stdout:\n%s", k.StepIndex, out.String())
		}
	} else if !strings.Contains(out.String(), "no saturation knee") {
		t.Fatalf("no knee in report but stdout disagrees:\n%s", out.String())
	}

	// Same configuration to the same path, over a file that is not a
	// report at all: it is overwritten without being read, and the plan
	// fingerprint is identical (determinism at the CLI layer).
	if err := os.WriteFile(outPath, []byte(`{"load_reports":[{"system":"stale"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out2 bytes.Buffer
	if err := runLoadgen(args, &out2); err != nil {
		t.Fatalf("loadgen rerun: %v\n%s", err, out2.String())
	}
	rep2 := readLoadReport(t, outPath)
	if rep2.PlanFingerprint != rep.PlanFingerprint {
		t.Fatalf("fingerprint drifted across runs: %s vs %s", rep2.PlanFingerprint, rep.PlanFingerprint)
	}
	if rep2.System != "liberty" || len(rep2.Steps) != 3 {
		t.Fatalf("rerun report: %+v", rep2)
	}
}

// TestLoadgenWritesNothingByDefault: without -o a run leaves no file in
// the working directory (it used to drop a ledger there).
func TestLoadgenWritesNothingByDefault(t *testing.T) {
	// No test in this package runs in parallel, so the process cwd is
	// this test's to move (t.Chdir needs a newer Go than go.mod names).
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(prev)
	var out bytes.Buffer
	if err := runLoadgen(loadgenTestArgs("-ramp-steps", "1"), &out); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "load report written") {
		t.Fatalf("claims to have written a report without -o:\n%s", out.String())
	}
	left, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("loadgen without -o left %d entries in the cwd, first %q", len(left), left[0].Name())
	}
}

// TestLoadgenUsageErrors pins the flag contract.
func TestLoadgenUsageErrors(t *testing.T) {
	var out bytes.Buffer
	err := runLoadgen([]string{"-target", "http://127.0.0.1:1", "-shards", "2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-shards only applies") {
		t.Fatalf("want usage error for -target + -shards, got %v", err)
	}
	err = runLoadgen([]string{"-system", "nosuch"}, &out)
	if err == nil {
		t.Fatal("want error for unknown system")
	}
}
