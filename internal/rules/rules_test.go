package rules

import (
	"math/rand"
	"strings"
	"testing"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/ingest"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/tag"
)

func TestParseRuleBasic(t *testing.T) {
	r, err := ParseRule(logrec.Spirit, `H EXT_FS /EXT3-fs error/`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "EXT_FS" || r.Type != catalog.Hardware {
		t.Errorf("rule = %+v", r)
	}
	if !r.Matches(&logrec.Record{Body: "EXT3-fs error (device sda5)"}) {
		t.Error("body match failed")
	}
	if r.Matches(&logrec.Record{Body: "all quiet"}) {
		t.Error("non-matching body matched")
	}
}

func TestParseRuleProgramConjunct(t *testing.T) {
	r, err := ParseRule(logrec.Spirit, `S PBS_CHK program == "pbs_mom" && /task_check, cannot tm_reply/`)
	if err != nil {
		t.Fatal(err)
	}
	good := logrec.Record{Program: "pbs_mom", Body: "task_check, cannot tm_reply to 1 task 1"}
	if !r.Matches(&good) {
		t.Error("conjunction failed on matching record")
	}
	bad := good
	bad.Program = "kernel"
	if r.Matches(&bad) {
		t.Error("program constraint ignored")
	}
}

func TestParseRuleAwkForm(t *testing.T) {
	// The paper's own example: ($5 ~ /KERNEL/ && /kernel panic/)
	r, err := ParseRule(logrec.BlueGeneL, `I KERNPAN ($5 ~ /KERNEL/ && /kernel panic/)`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Matches(&logrec.Record{Facility: "KERNEL", Body: "kernel panic"}) {
		t.Error("awk form failed")
	}
	if r.Matches(&logrec.Record{Facility: "APP", Body: "kernel panic"}) {
		t.Error("$5 constraint ignored")
	}
}

func TestParseRuleSeverity(t *testing.T) {
	r, err := ParseRule(logrec.BlueGeneL, `I FATALS severity == FATAL && /./`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Matches(&logrec.Record{Severity: logrec.SevFatal, Body: "x"}) {
		t.Error("severity equality failed")
	}
	if r.Matches(&logrec.Record{Severity: logrec.SevInfoBGL, Body: "x"}) {
		t.Error("severity mismatch matched")
	}
}

func TestParseRuleEscapedSlash(t *testing.T) {
	r, err := ParseRule(logrec.Liberty, `H GM_PAR /gm_parity\.c:115:parity_int\(\):firmware/`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Matches(&logrec.Record{Body: "PANIC: /usr/src/gm_parity.c:115:parity_int():firmware"}) {
		t.Error("escaped pattern failed")
	}
	// A pattern containing a literal / must round-trip via \/.
	r2, err := ParseRule(logrec.Liberty, `H SLASH /rejecting I\/O to offline device/`)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Matches(&logrec.Record{Body: "scsi0: rejecting I/O to offline device"}) {
		t.Error("slash-escaped pattern failed")
	}
}

func TestParseRuleErrors(t *testing.T) {
	cases := []string{
		``,
		`H`,
		`H NAME`,
		`X NAME /re/`,          // bad type
		`H NAME /unterminated`, // bad regex delim
		`H NAME bogusfield ~ /x/`,
		`H NAME program = "x"`,  // single =
		`H NAME /a/ && `,        // trailing conjunct
		`H NAME (/a/`,           // missing paren
		`H NAME /a/ extra-junk`, // trailing input
		`H NAME /[/`,            // invalid regexp
		`H NAME severity == `,   // missing value
	}
	for _, line := range cases {
		if _, err := ParseRule(logrec.Liberty, line); err == nil {
			t.Errorf("ParseRule(%q) expected error", line)
		}
	}
}

func TestLoadFile(t *testing.T) {
	file := `
# Liberty rules
S PBS_CHK  program == "pbs_mom" && /task_check, cannot tm_reply/
H GM_PAR   program == "kernel" && /GM: LANAI\[0\]: PANIC/

S PBS_CON  program == "pbs_mom" && /Connection refused \(111\)/
`
	set, err := Load(strings.NewReader(file), logrec.Liberty)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rules()) != 3 {
		t.Fatalf("rules = %d, want 3 (comments and blanks skipped)", len(set.Rules()))
	}
	rule, ok := set.Tag(&logrec.Record{Program: "pbs_mom", Body: "task_check, cannot tm_reply to 9 task 1"})
	if !ok || rule.Name != "PBS_CHK" {
		t.Errorf("tag = %v %v", rule, ok)
	}
	if _, ok := set.Tag(&logrec.Record{Program: "sshd", Body: "session opened"}); ok {
		t.Error("benign record tagged")
	}
}

func TestLoadReportsLineNumbers(t *testing.T) {
	file := "H GOOD /x/\nH BAD /unterminated\n"
	_, err := Load(strings.NewReader(file), logrec.Liberty)
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
}

func TestFirstMatchWins(t *testing.T) {
	file := "H FIRST /error/\nH SECOND /EXT3-fs error/\n"
	set, err := Load(strings.NewReader(file), logrec.Spirit)
	if err != nil {
		t.Fatal(err)
	}
	rule, ok := set.Tag(&logrec.Record{Body: "EXT3-fs error"})
	if !ok || rule.Name != "FIRST" {
		t.Errorf("first-match-wins violated: got %v", rule)
	}
}

// TestExportLoadRoundTrip: for every system, the exported rule file
// reloads into a set that tags generated messages identically to the
// catalog.
func TestExportLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sys := range logrec.Systems() {
		set, err := LoadSystem(sys)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if len(set.Rules()) != len(catalog.BySystem(sys)) {
			t.Fatalf("%v: %d rules, want %d", sys, len(set.Rules()), len(catalog.BySystem(sys)))
		}
		for _, c := range catalog.BySystem(sys) {
			rec := logrec.Record{
				System:   sys,
				Facility: c.Facility,
				Program:  c.Program,
				Severity: c.Severity,
				Body:     c.Gen(rng),
			}
			rule, ok := set.Tag(&rec)
			if !ok {
				t.Errorf("%v/%s: exported rules missed a generated record", sys, c.Name)
				continue
			}
			if rule.Name != c.Name {
				t.Errorf("%v/%s: tagged as %s by exported rules", sys, c.Name, rule.Name)
			}
			if rule.Type != c.Type {
				t.Errorf("%v/%s: type %v, want %v", sys, c.Name, rule.Type, c.Type)
			}
		}
	}
}

func TestExportFormatIsStable(t *testing.T) {
	var b strings.Builder
	if err := Export(&b, logrec.Liberty); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `S PBS_CHK    program == "pbs_mom" && /task_check, cannot tm_reply/`) {
		t.Errorf("export format changed:\n%s", out)
	}
	if !strings.HasPrefix(out, "# Liberty expert rules (6 categories)") {
		t.Errorf("export header changed:\n%s", out)
	}
	b.Reset()
	if err := Export(&b, logrec.BlueGeneL); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nH KERNDTLB   $5 == \"KERNEL\" && /data TLB error interrupt/\n") {
		t.Errorf("BG/L export format changed:\n%s", b.String())
	}
}

func TestParseRuleParenNesting(t *testing.T) {
	m, err := ParseRule(logrec.Liberty, `H NEST ((/a/) && (/b/ && /c/))`)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Matches(&logrec.Record{Body: "a b c"}) {
		t.Error("nested conjunction failed")
	}
	if m.Matches(&logrec.Record{Body: "a b"}) {
		t.Error("missing term matched")
	}
	if m.Matches(&logrec.Record{Body: "b c"}) {
		t.Error("missing first term matched")
	}
}

// TestParseRuleOneRuneBody: a body regexp of one rune must still be
// matched, not waved through by the literal prefilter.
func TestParseRuleOneRuneBody(t *testing.T) {
	for _, line := range []string{`H X /a/`, `H X /:/`, `H X /\./`, `H X /[x]/`} {
		r, err := ParseRule(logrec.Liberty, line)
		if err != nil {
			t.Fatal(err)
		}
		if r.Matches(&logrec.Record{Body: "zzz"}) {
			t.Errorf("%s matched body %q", line, "zzz")
		}
	}
	r, err := ParseRule(logrec.Liberty, `H X /a/`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Matches(&logrec.Record{Body: "bab"}) {
		t.Error("/a/ did not match body \"bab\"")
	}
}

func TestFieldGetters(t *testing.T) {
	rec := logrec.Record{Source: "sn373", Program: "kernel", Facility: "KERNEL", Body: "x", Severity: logrec.SevCrit}
	cases := []struct {
		expr string
		want bool
	}{
		{`source == sn373`, true},
		{`host ~ /^sn/`, true},
		{`body ~ /x/`, true},
		{`facility == KERNEL`, true},
		{`severity == CRIT`, true},
		{`source == sn1`, false},
		{`body ~ /y/`, false},
	}
	for _, tc := range cases {
		m, err := ParseRule(logrec.Spirit, "I FIELD "+tc.expr)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", tc.expr, err)
		}
		if got := m.Matches(&rec); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

// TestParseRuleNameLikeType: a rule named like its own type letter
// parses, because the expression is cut after the second field by
// position rather than found by searching for the name.
func TestParseRuleNameLikeType(t *testing.T) {
	r, err := ParseRule(logrec.Liberty, `S S program == "pbs_mom" && /task_check/`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "S" || r.Type != catalog.Software {
		t.Errorf("rule = %s/%s", r.Type.Code(), r.Name)
	}
	if !r.Matches(&logrec.Record{Program: "pbs_mom", Body: "task_check, cannot tm_reply"}) {
		t.Error("rule S missed a matching record")
	}
}

// TestExportedFacilityIsExact: the exported BG/L rules test the facility
// for equality, as the catalog does, so a facility that merely contains
// KERNEL is not tagged by either.
func TestExportedFacilityIsExact(t *testing.T) {
	tg, err := LoadSystem(logrec.BlueGeneL)
	if err != nil {
		t.Fatal(err)
	}
	rec := logrec.Record{System: logrec.BlueGeneL, Facility: "LINUXKERNEL", Body: "data TLB error interrupt"}
	if c, ok := tg.Tag(&rec); ok {
		t.Errorf("exported rules tagged facility %q as %s", rec.Facility, c.Name)
	}
	if c, ok := tag.NewTagger(logrec.BlueGeneL).Tag(&rec); ok {
		t.Errorf("built-in rules tagged facility %q as %s", rec.Facility, c.Name)
	}
	rec.Facility = "KERNEL"
	if c, ok := tg.Tag(&rec); !ok || c.Name != "KERNDTLB" {
		t.Errorf("exported rules tag facility KERNEL as %v, want KERNDTLB", c)
	}
}

// TestLoadSystemMatchesCatalogTagger: on every record of a generated
// log of each system, corrupted lines included, the exported and
// reloaded rules tag the same category and type as the built-in tagger.
func TestLoadSystemMatchesCatalogTagger(t *testing.T) {
	for _, sys := range logrec.Systems() {
		out, err := simulate.Generate(simulate.Config{System: sys, Scale: 0.001, Seed: 1, CorruptionProb: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := ingest.ReadAll(strings.NewReader(strings.Join(out.Lines, "\n")+"\n"), sys, out.Machine.LogStart)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSystem(sys)
		if err != nil {
			t.Fatal(err)
		}
		builtin := tag.NewTagger(sys)
		alerts, differ := 0, 0
		for i := range recs {
			got, gok := loaded.Tag(&recs[i])
			want, wok := builtin.Tag(&recs[i])
			if gok != wok || gok && (got.Name != want.Name || got.Type != want.Type) {
				if differ++; differ <= 3 {
					t.Errorf("%v: record %d (%q): loaded rules %v, built-in %v", sys, i, recs[i].Body, got, want)
				}
			}
			if wok {
				alerts++
			}
		}
		if differ > 0 {
			t.Errorf("%v: %d of %d records tagged differently", sys, differ, len(recs))
		}
		if alerts == 0 {
			t.Errorf("%v: no alerts among %d records; the differential tested nothing", sys, len(recs))
		}
	}
}
