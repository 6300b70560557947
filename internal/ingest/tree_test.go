package ingest_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/syslogng"
)

// TestTreeRoundTrip writes a synthetic Liberty log into the per-source
// directory layout of Section 3.1 and reads every file back: each is one
// gzipped source log, and together they hold every line.
func TestTreeRoundTrip(t *testing.T) {
	out, err := simulate.Generate(simulate.Config{System: logrec.Liberty, Scale: 0.00005, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "liberty")
	render := func(r logrec.Record) string {
		if r.Raw != "" {
			return r.Raw
		}
		return syslogng.Render(r, false)
	}
	if err := ingest.WriteTree(dir, out.Records, render, true); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".log.gz") {
			t.Fatalf("unexpected file %s in the tree", f.Name())
		}
		r, err := ingest.Open(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := ingest.ReadAll(r, logrec.Liberty, out.Start)
		r.Close()
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		lines += stats.Lines
	}
	if lines != len(out.Records) {
		t.Fatalf("tree holds %d lines, want %d", lines, len(out.Records))
	}
}
