package syslogng

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"whatsupersay/internal/logrec"
)

func mkRecord(body string) logrec.Record {
	return logrec.Record{
		Time:    time.Date(2005, time.March, 7, 14, 30, 5, 0, time.UTC),
		System:  logrec.Liberty,
		Source:  "ln42",
		Program: "pbs_mom",
		Body:    body,
	}
}

func TestRenderBasic(t *testing.T) {
	got := Render(mkRecord("task_check, cannot tm_reply to 12345.ladmin2 task 1"), false)
	want := "Mar  7 14:30:05 ln42 pbs_mom: task_check, cannot tm_reply to 12345.ladmin2 task 1"
	if got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}
}

func TestRenderNoProgram(t *testing.T) {
	r := mkRecord("standalone body")
	r.Program = ""
	got := Render(r, false)
	if strings.Contains(got, ": standalone") {
		t.Errorf("no-program render should not contain tag colon: %q", got)
	}
	if !strings.HasSuffix(got, " ln42 standalone body") {
		t.Errorf("Render = %q", got)
	}
}

func TestRenderWithPriority(t *testing.T) {
	r := mkRecord("x")
	r.Severity = logrec.SevCrit
	r.Facility = "kern"
	got := Render(r, true)
	if !strings.HasPrefix(got, "<2>") {
		t.Errorf("CRIT on kern should render <2>: %q", got)
	}
	// Without a syslog severity, no PRI even when requested.
	r.Severity = logrec.SeverityUnknown
	if got := Render(r, true); strings.HasPrefix(got, "<") {
		t.Errorf("no severity must render no PRI: %q", got)
	}
}

func TestParseBasic(t *testing.T) {
	line := "Mar  7 14:30:05 ln42 pbs_mom: task_check, cannot tm_reply to 1.l task 1"
	rec, perr := Parse(line, 2005, logrec.Liberty)
	if perr != nil {
		t.Fatalf("Parse: %v", perr)
	}
	if rec.Source != "ln42" || rec.Program != "pbs_mom" {
		t.Errorf("source/program = %q/%q", rec.Source, rec.Program)
	}
	if rec.Body != "task_check, cannot tm_reply to 1.l task 1" {
		t.Errorf("body = %q", rec.Body)
	}
	want := time.Date(2005, time.March, 7, 14, 30, 5, 0, time.UTC)
	if !rec.Time.Equal(want) {
		t.Errorf("time = %v, want %v", rec.Time, want)
	}
	if rec.Corrupted {
		t.Error("clean line marked corrupted")
	}
}

func TestParsePID(t *testing.T) {
	line := "Mar  7 14:30:05 sn373 gm_mapper[736]: assertion failed. /x/mi.c:541 (r == GM_SUCCESS)"
	rec, perr := Parse(line, 2005, logrec.Spirit)
	if perr != nil {
		t.Fatalf("Parse: %v", perr)
	}
	if rec.Program != "gm_mapper" {
		t.Errorf("program = %q, want gm_mapper (pid stripped)", rec.Program)
	}
}

func TestParsePriority(t *testing.T) {
	line := "<2>Mar  7 14:30:05 ddn1 DMT_DINT Failing Disk 2A"
	rec, perr := Parse(line, 2006, logrec.RedStorm)
	if perr != nil {
		t.Fatalf("Parse: %v", perr)
	}
	if rec.Severity != logrec.SevCrit {
		t.Errorf("severity = %v, want CRIT", rec.Severity)
	}
	if rec.Facility != "kern" {
		t.Errorf("facility = %q, want kern", rec.Facility)
	}
	if rec.Body != "DMT_DINT Failing Disk 2A" {
		t.Errorf("body = %q", rec.Body)
	}
}

func TestParseBodyWithColonSpaceInsideText(t *testing.T) {
	// "Server Administrator: ..." has a space before the colon token's
	// end, so it must NOT be treated as a program tag.
	line := "Mar  7 14:30:05 tn7 Server Administrator: Instrumentation Service EventID: 1404 x"
	rec, perr := Parse(line, 2005, logrec.Thunderbird)
	if perr != nil {
		t.Fatalf("Parse: %v", perr)
	}
	if rec.Program != "" {
		t.Errorf("program = %q, want empty", rec.Program)
	}
	if !strings.HasPrefix(rec.Body, "Server Administrator:") {
		t.Errorf("body = %q", rec.Body)
	}
}

func TestParseCorruptLines(t *testing.T) {
	cases := []string{
		"",
		"short",
		"XXX 99 99:99:99 host prog: body",
		"Mar  7 14:30:05",      // timestamp only
		"Mar  7 14:30:05 ",     // no host
		"Mar  7 14:30:05x h b", // missing separator
	}
	for _, line := range cases {
		rec, perr := Parse(line, 2005, logrec.Liberty)
		if perr == nil {
			t.Errorf("Parse(%q) expected error", line)
			continue
		}
		if !rec.Corrupted {
			t.Errorf("Parse(%q) should mark record corrupted", line)
		}
		if rec.Raw != line {
			t.Errorf("Parse(%q) must preserve raw text, got %q", line, rec.Raw)
		}
	}
}

func TestRenderParseRoundTripProperty(t *testing.T) {
	progs := []string{"kernel", "pbs_mom", "sshd", "crond", ""}
	f := func(seed int64, bodyWords uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		words := int(bodyWords%10) + 1
		parts := make([]string, words)
		for i := range parts {
			parts[i] = string(rune('a' + rng.Intn(26)))
		}
		rec := logrec.Record{
			Time:    time.Date(2005, time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60), 0, time.UTC),
			System:  logrec.Liberty,
			Source:  "ln" + string(rune('1'+rng.Intn(9))),
			Program: progs[rng.Intn(len(progs))],
			Body:    strings.Join(parts, " "),
		}
		line := Render(rec, false)
		got, perr := Parse(line, 2005, logrec.Liberty)
		if perr != nil {
			return false
		}
		return got.Time.Equal(rec.Time) && got.Source == rec.Source &&
			got.Program == rec.Program && got.Body == rec.Body
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRenderParseRoundTripWithPriority(t *testing.T) {
	for _, sev := range logrec.SyslogSeverities() {
		rec := mkRecord("body text here")
		rec.Severity = sev
		rec.Facility = "daemon"
		line := Render(rec, true)
		got, perr := Parse(line, 2005, logrec.Liberty)
		if perr != nil {
			t.Fatalf("Parse(%q): %v", line, perr)
		}
		if got.Severity != sev {
			t.Errorf("severity round trip %v -> %v", sev, got.Severity)
		}
		if got.Facility != "daemon" {
			t.Errorf("facility round trip got %q", got.Facility)
		}
	}
}
