// Ingest: the round trip a downstream user cares about — write a
// synthetic log to disk as plain text, then ingest that text cold (no
// ground truth, no shared state) through the streaming reader, tag it
// with rules loaded from an external rule file, anonymize it, and verify
// that tagging is invariant under anonymization. This is the workflow
// the paper's authors wanted for the logs they could not release.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"whatsupersay/internal/anonymize"
	"whatsupersay/internal/filter"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/report"
	"whatsupersay/internal/rules"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/tag"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Generate a Liberty log and write it to disk as text.
	out, err := simulate.Generate(simulate.Config{System: logrec.Liberty, Scale: 0.0005, AlertScale: 1, Seed: 17})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "whatsupersay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "liberty.log")
	if err := os.WriteFile(path, []byte(strings.Join(out.Lines, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s lines to %s\n", report.Comma(int64(len(out.Lines))), path)

	// 2. Ingest the text cold.
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	recs, stats, err := ingest.ReadAll(f, logrec.Liberty, out.Machine.LogStart)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("ingested %s records (%d parse errors, %d syslog lines)\n",
		report.Comma(int64(stats.Lines)), stats.ParseErrors, stats.Syslog)

	// 3. Tag with rules loaded from the external rule-file format.
	set, err := rules.LoadSystem(logrec.Liberty)
	if err != nil {
		return err
	}
	var alerts []tag.Alert
	expert := tag.NewTagger(logrec.Liberty)
	for _, r := range recs {
		if _, ok := set.Tag(r); ok {
			if c, ok2 := expert.Tag(&r); ok2 {
				alerts = append(alerts, tag.Alert{Record: r, Category: c})
			}
		}
	}
	// ReadAll's records are canonical, so the alerts are too.
	filtered := filter.Simultaneous{}.Filter(alerts)
	fmt.Printf("external rules tagged %s alerts; %s after filtering\n",
		report.Comma(int64(len(alerts))), report.Comma(int64(len(filtered))))

	// 4. Anonymize and verify tagging is invariant.
	an := anonymize.New("release-key-2007")
	lines := make([]string, len(out.Lines))
	copy(lines, out.Lines)
	changed := an.Lines(lines)
	leaks := an.Audit(lines)
	fmt.Printf("anonymized: %s lines rewritten, %d residual leaks found by audit\n",
		report.Comma(int64(changed)), len(leaks))

	anonRecs, _, err := ingest.ReadAll(strings.NewReader(strings.Join(lines, "\n")+"\n"), logrec.Liberty, out.Machine.LogStart)
	if err != nil {
		return err
	}
	anonAlerts := expert.TagAll(anonRecs)
	fmt.Printf("tagging before vs after anonymization: %d vs %d alerts", len(alerts), len(anonAlerts))
	if len(anonAlerts) == len(alerts) {
		fmt.Println(" — invariant, as required for a releasable corpus")
	} else {
		fmt.Println(" — MISMATCH")
	}
	return nil
}
