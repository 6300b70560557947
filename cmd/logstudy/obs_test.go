package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"whatsupersay/internal/obs"
)

// TestExtractGlobal covers the flag grammar: global flags before or
// after the subcommand, both "-flag value" and "-flag=value" spellings,
// and everything else passed through untouched.
func TestExtractGlobal(t *testing.T) {
	cases := []struct {
		args     []string
		wantRest []string
		want     globalOpts
	}{
		{
			args:     []string{"ingest", "-in", "x.log", "-metrics", "out.json"},
			wantRest: []string{"ingest", "-in", "x.log"},
			want:     globalOpts{metricsPath: "out.json"},
		},
		{
			args:     []string{"-metrics=out.json", "-v", "loadgen", "-system", "liberty"},
			wantRest: []string{"loadgen", "-system", "liberty"},
			want:     globalOpts{metricsPath: "out.json", verbose: true},
		},
		{
			args:     []string{"tables", "-http", "localhost:6060", "-t", "3"},
			wantRest: []string{"tables", "-t", "3"},
			want:     globalOpts{httpAddr: "localhost:6060"},
		},
		{
			args:     []string{"generate", "-system", "liberty"},
			wantRest: []string{"generate", "-system", "liberty"},
			want:     globalOpts{},
		},
	}
	for _, tc := range cases {
		rest, g, err := extractGlobal(tc.args)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !reflect.DeepEqual(rest, tc.wantRest) || g != tc.want {
			t.Errorf("extractGlobal(%v) = %v, %+v; want %v, %+v",
				tc.args, rest, g, tc.wantRest, tc.want)
		}
	}
	if _, _, err := extractGlobal([]string{"ingest", "-metrics"}); err == nil {
		t.Error("trailing -metrics without a value must error")
	}
}

// TestIngestMetricsSnapshot is the acceptance path: `logstudy ingest
// -metrics out.json -v` must emit per-stage counters and histograms in
// the snapshot and print the stage summary table.
func TestIngestMetricsSnapshot(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "liberty.log")
	var buf bytes.Buffer
	if err := run([]string{"generate", "-system", "liberty", "-scale", "0.0002", "-o", logPath}, &buf); err != nil {
		t.Fatalf("generate: %v", err)
	}

	metricsPath := filepath.Join(dir, "out.json")
	buf.Reset()
	if err := run([]string{"ingest", "-in", logPath, "-metrics", metricsPath, "-v"}, &buf); err != nil {
		t.Fatalf("ingest: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"stage", "p99", "counters:", "telemetry snapshot written to"} {
		if !strings.Contains(out, want) {
			t.Errorf("verbose output missing %q:\n%s", want, out)
		}
	}

	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["ingest_lines_total"] == 0 {
		t.Error("snapshot missing ingest_lines_total > 0")
	}
	if h, ok := snap.Histograms["stage_ingest_seconds"]; !ok || h.Count == 0 {
		t.Errorf("snapshot missing stage_ingest_seconds span histogram: %+v", h)
	}
	if h, ok := snap.Histograms["ingest_line_bytes"]; !ok || h.Count == 0 || h.Unit != "bytes" {
		t.Errorf("snapshot missing ingest_line_bytes histogram: %+v", h)
	}
}

// TestHTTPFlag checks both halves of -http: run announces the bound
// address, and the handler behind it serves the Prometheus exposition
// and the pprof index.
func TestHTTPFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-http", "127.0.0.1:0", "rules", "-system", "liberty"}, &buf); err != nil {
		t.Fatalf("run with -http: %v", err)
	}
	if !strings.Contains(buf.String(), "serving /metrics and /debug/pprof on http://127.0.0.1:") {
		t.Errorf("missing server announcement:\n%s", buf.String())
	}

	// The server stops when run returns, so scrape through the same
	// Serve entry point the flag uses.
	addr, stop, err := obs.Serve("127.0.0.1:0", obs.Default)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for path, want := range map[string]string{
		"/metrics":      "# TYPE",
		"/debug/pprof/": "profiles",
	} {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s: status %d, body missing %q", path, resp.StatusCode, want)
		}
	}
}
