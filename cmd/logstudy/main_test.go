package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testArgs appends a tiny scale so CLI tests stay fast.
func testArgs(args ...string) []string {
	return append(args, "-scale", "0.00005", "-seed", "2")
}

func TestUsageAndUnknown(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err == nil {
		t.Error("no-arg run must be a usage error")
	}
	if !strings.Contains(b.String(), "subcommands") {
		t.Error("usage missing")
	}
	if err := run([]string{"bogus"}, &b); err == nil {
		t.Error("unknown subcommand must error")
	}
	b.Reset()
	if err := run([]string{"help"}, &b); err != nil || !strings.Contains(b.String(), "compare-filters") {
		t.Error("help output wrong")
	}
	if !strings.Contains(b.String(), "build-store") || !strings.Contains(b.String(), "serve") {
		t.Error("usage missing the store subcommands")
	}
}

// TestExitCodes pins the process exit contract: 0 success and help,
// 1 runtime failure, 2 usage mistakes — and errors on stderr, never
// stdout.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"success", []string{"tables", "-t", "1"}, 0},
		{"help subcommand", []string{"help"}, 0},
		{"subcommand -h", []string{"tables", "-h"}, 0},
		{"no subcommand", nil, 2},
		{"unknown subcommand", []string{"bogus"}, 2},
		{"removed bench subcommand", []string{"bench", "-system", "liberty"}, 2},
		{"bad flag", []string{"tables", "-no-such-flag"}, 2},
		{"bad flag value", []string{"tables", "-scale", "x"}, 2},
		{"missing required flag", []string{"analyze"}, 2},
		{"missing global value", []string{"tables", "-metrics"}, 2},
		{"runtime failure", []string{"analyze", "-in", "/no/such/file"}, 1},
		{"bad system", []string{"generate", "-system", "marsrover"}, 1},
	}
	for _, tc := range cases {
		var out, errw strings.Builder
		if got := runMain(tc.args, &out, &errw); got != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, got, tc.want, errw.String())
		}
		if tc.want == 1 && errw.Len() == 0 {
			t.Errorf("%s: runtime failure printed nothing to stderr", tc.name)
		}
		if tc.want != 0 && strings.Contains(out.String(), "logstudy:") {
			t.Errorf("%s: error text leaked to stdout", tc.name)
		}
	}
}

func TestRulesCommand(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"rules", "-system", "bgl"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "41 categories") {
		t.Errorf("BG/L rule count missing: %s", out)
	}
	if !strings.Contains(out, `$5 == "KERNEL"`) {
		t.Error("awk-style rule missing")
	}
	b.Reset()
	if err := run([]string{"rules"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"Blue Gene/L", "Thunderbird", "Red Storm", "Spirit", "Liberty"} {
		if !strings.Contains(b.String(), sys) {
			t.Errorf("rules for %s missing", sys)
		}
	}
	if err := run([]string{"rules", "-system", "nope"}, &b); err == nil {
		t.Error("bad system must error")
	}
}

func TestTables1Command(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"tables", "-t", "1"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "131072") {
		t.Error("Table 1 content missing")
	}
}

func TestTables5Command(t *testing.T) {
	var b strings.Builder
	if err := run(testArgs("tables", "-t", "5"), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "FATAL") || !strings.Contains(out, "severity baseline") {
		t.Errorf("Table 5 output incomplete:\n%s", out)
	}
}

func TestTablesAllCommand(t *testing.T) {
	var b strings.Builder
	if err := run(testArgs("tables"), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table 1.", "Table 2.", "Table 3.", "Table 4 (Blue Gene/L).",
		"Table 4 (Liberty).", "Table 5.", "Table 6.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tables output missing %q", want)
		}
	}
	// Category columns intact at tiny scale.
	if !strings.Contains(out, "EXT_CCISS") || !strings.Contains(out, "KERNDTLB") {
		t.Error("table 4 rows missing")
	}
}

func TestGenerateCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "liberty.log")
	var b strings.Builder
	if err := run(testArgs("generate", "-system", "liberty", "-o", path), &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 1000 {
		t.Errorf("generated %d lines, want a real log", len(lines))
	}
	if !strings.Contains(b.String(), "wrote") {
		t.Error("summary line missing")
	}
	if err := run(testArgs("generate", "-system", "marsrover"), &b); err == nil {
		t.Error("bad system must error")
	}
}

func TestGenerateTreeCommand(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tree")
	var b strings.Builder
	if err := run(testArgs("generate", "-system", "liberty", "-tree", dir), &b); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 20 {
		t.Fatalf("tree has %d source files, want many", len(entries))
	}
	foundAdmin := false
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "ladmin2") {
			foundAdmin = true
		}
	}
	if !foundAdmin {
		t.Error("ladmin2 per-source file missing")
	}
}

func TestCompareFiltersCommand(t *testing.T) {
	var b strings.Builder
	if err := run(testArgs("compare-filters", "-system", "liberty", "-adaptive"), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"simultaneous", "serial", "temporal", "spatial", "adaptive", "Alerts/Failure"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q", want)
		}
	}
}

func TestRulesExportCommand(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"rules", "-system", "spirit", "-export"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `H EXT_CCISS`) || !strings.Contains(out, `program == "pbs_mom"`) {
		t.Errorf("export format missing rules:\n%s", out)
	}
}

func TestAnalyzeCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.log")
	var b strings.Builder
	if err := run(testArgs("generate", "-system", "liberty", "-o", path), &b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := run([]string{"analyze", "-in", path, "-system", "liberty"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "ingested") || !strings.Contains(out, "Algorithm 3.1") {
		t.Errorf("analyze output incomplete:\n%s", out)
	}
	if !strings.Contains(out, "PBS_CHK") {
		t.Error("per-category table missing")
	}

	// Analyze with an exported rule file: same shape.
	rulePath := filepath.Join(dir, "rules.txt")
	b.Reset()
	if err := run([]string{"rules", "-system", "liberty", "-export"}, &b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rulePath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := run([]string{"analyze", "-in", path, "-system", "liberty", "-rules", rulePath}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "custom rules") {
		t.Error("custom-rules path not used")
	}

	// A category that exists only in the rule file gets its own row.
	if err := os.WriteFile(rulePath, []byte("S PBS_CHK program == \"pbs_mom\" && /task_check, cannot tm_reply/\nI SSHD_ANY program == \"sshd\" && /session opened/\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := run([]string{"analyze", "-in", path, "-system", "liberty", "-rules", rulePath}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "2 categories observed") || !strings.Contains(b.String(), "I / SSHD_ANY") {
		t.Errorf("rule-file-only category missing from the table:\n%s", b.String())
	}

	// A malformed rule file fails before the log is read.
	if err := os.WriteFile(rulePath, []byte("H BAD /unterminated\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := run([]string{"analyze", "-in", path, "-system", "liberty", "-rules", rulePath}, &b); err == nil {
		t.Error("malformed rule file must error")
	}
	if strings.Contains(b.String(), "ingested") {
		t.Errorf("log read before the rule file was parsed:\n%s", b.String())
	}
	if err := run([]string{"analyze"}, &b); err == nil {
		t.Error("missing -in must error")
	}
}

func TestAnonymizeCommand(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.log")
	out := filepath.Join(dir, "out.log")
	content := "Mar  7 14:30:05 ln1 sshd: session opened for user zelda by (uid=0)\n"
	if err := os.WriteFile(in, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"anonymize", "-in", in, "-o", out, "-key", "k"}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "zelda") {
		t.Error("username survived anonymization")
	}
	if !strings.Contains(b.String(), "0 residual leaks") {
		t.Errorf("audit summary missing: %s", b.String())
	}
	if err := run([]string{"anonymize", "-in", in}, &b); err == nil {
		t.Error("missing -key must error")
	}
}

func TestGenerateAndAnalyzeGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lib.log.gz")
	var b strings.Builder
	if err := run(testArgs("generate", "-system", "liberty", "-o", path), &b); err != nil {
		t.Fatal(err)
	}
	// The file must actually be gzip (magic bytes).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatal("output is not gzip")
	}
	b.Reset()
	if err := run([]string{"analyze", "-in", path, "-system", "liberty"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ingested") {
		t.Errorf("gz analyze failed:\n%s", b.String())
	}
}

func TestFiguresCSVExport(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run(testArgs("figures", "-f", "2a", "-csv", dir), &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2a_liberty_hourly.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "hour,messages\n") {
		t.Errorf("csv header wrong: %q", string(data[:20]))
	}
}

func TestSweepCommand(t *testing.T) {
	var b strings.Builder
	if err := run(testArgs("sweep", "-system", "liberty"), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "threshold sensitivity") || !strings.Contains(out, "5s") {
		t.Errorf("sweep output incomplete:\n%s", out)
	}
}

func TestCompareFiltersCorrelationFlag(t *testing.T) {
	var b strings.Builder
	if err := run(testArgs("compare-filters", "-system", "liberty", "-correlation"), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "correlation-aware") || !strings.Contains(out, "learned category correlations") {
		t.Errorf("correlation output incomplete:\n%s", out)
	}
}

func TestDiscoverCommand(t *testing.T) {
	var b strings.Builder
	if err := run(testArgs("discover", "-system", "tbird", "-min", "5"), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "CPU") || !strings.Contains(out, "Multi-source %") {
		t.Errorf("discover output incomplete:\n%s", out)
	}
}

func TestMineCommand(t *testing.T) {
	var b strings.Builder
	if err := run(testArgs("mine", "-system", "liberty", "-support", "5", "-top", "5"), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "purity vs expert tags") {
		t.Errorf("mine output incomplete:\n%s", out)
	}
}

func TestJobsCommand(t *testing.T) {
	var b strings.Builder
	if err := run(testArgs("jobs", "-system", "liberty"), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "alert-only estimate") || !strings.Contains(out, "node-hours lost") {
		t.Errorf("jobs output incomplete:\n%s", out)
	}
}

func TestFiguresCommand(t *testing.T) {
	var b strings.Builder
	if err := run(testArgs("figures", "-f", "1"), &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 1") {
		t.Error("figure 1 missing")
	}
	b.Reset()
	if err := run(testArgs("figures", "-f", "3"), &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "GM_PAR") {
		t.Error("figure 3 missing lanes")
	}
}
