package catalog

import (
	"math/rand"
	"testing"

	"whatsupersay/internal/logrec"
)

// TestCategoryCountIs77 pins the paper's headline: "178,081,459 alert
// messages in 77 categories".
func TestCategoryCountIs77(t *testing.T) {
	if got := Count(); got != 77 {
		t.Fatalf("catalog has %d categories, want 77", got)
	}
}

// TestPerSystemCategoryCounts pins the "Categories" column of Table 2.
func TestPerSystemCategoryCounts(t *testing.T) {
	want := map[logrec.System]int{
		logrec.BlueGeneL:   41,
		logrec.Thunderbird: 10,
		logrec.RedStorm:    12,
		logrec.Spirit:      8,
		logrec.Liberty:     6,
	}
	for sys, n := range want {
		if got := len(BySystem(sys)); got != n {
			t.Errorf("%v has %d categories, want %d", sys, got, n)
		}
	}
}

// TestRawTotalsMatchTable2 pins the "Alerts" column of Table 2: the sum
// of per-category raw counts per system.
func TestRawTotalsMatchTable2(t *testing.T) {
	want := map[logrec.System]int{
		logrec.BlueGeneL:   348460,
		logrec.Thunderbird: 3248239,
		logrec.RedStorm:    1665744,
		logrec.Spirit:      172816563, // Table 4 column sum; Table 2 prints 172,816,564
		logrec.Liberty:     2452,
	}
	grand := 0
	for sys, n := range want {
		got := 0
		for _, c := range BySystem(sys) {
			got += c.Raw
		}
		if got != n {
			t.Errorf("%v raw total = %d, want %d", sys, got, n)
		}
		grand += got
	}
	// Paper: 178,081,459 total alerts (off-by-one from the Table 4
	// column sums, which the paper itself carries).
	if grand < 178081458 || grand > 178081459 {
		t.Errorf("grand raw total = %d, want ~178,081,459", grand)
	}
}

// TestFilteredTotalsMatchTable4 pins the per-system filtered sums.
func TestFilteredTotalsMatchTable4(t *testing.T) {
	want := map[logrec.System]int{
		logrec.BlueGeneL:   1202,
		logrec.Thunderbird: 2088,
		logrec.RedStorm:    1430,
		logrec.Spirit:      4875,
		logrec.Liberty:     1050,
	}
	for sys, n := range want {
		got := 0
		for _, c := range BySystem(sys) {
			got += c.Filtered
		}
		if got != n {
			t.Errorf("%v filtered total = %d, want %d", sys, got, n)
		}
	}
}

// TestTypeTotalsMatchTable3 pins Table 3's H/S/I totals, raw and
// filtered.
func TestTypeTotalsMatchTable3(t *testing.T) {
	raw := map[Type]int{}
	filt := map[Type]int{}
	for _, c := range All() {
		raw[c.Type] += c.Raw
		filt[c.Type] += c.Filtered
	}
	wantRaw := map[Type]int{Hardware: 174586516, Software: 144899, Indeterminate: 3350043}
	wantFilt := map[Type]int{Hardware: 1999, Software: 6814, Indeterminate: 1832}
	for ty, n := range wantRaw {
		// The paper's indeterminate raw is 3,350,044; the Table 4 sum is
		// 3,350,043 (same off-by-one as the Spirit total).
		if got := raw[ty]; got != n {
			t.Errorf("raw %v = %d, want %d", ty, got, n)
		}
	}
	for ty, n := range wantFilt {
		if got := filt[ty]; got != n {
			t.Errorf("filtered %v = %d, want %d", ty, got, n)
		}
	}
}

// TestFilteredNeverExceedsRaw: filtering only removes.
func TestFilteredNeverExceedsRaw(t *testing.T) {
	for _, c := range All() {
		if c.Filtered > c.Raw {
			t.Errorf("%s: filtered %d > raw %d", c.Key(), c.Filtered, c.Raw)
		}
		if c.Raw <= 0 || c.Filtered <= 0 {
			t.Errorf("%s: non-positive counts", c.Key())
		}
	}
}

// TestKeysUnique: category names are unique within a system (they repeat
// across systems: PBS_CON appears on three machines).
func TestKeysUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range All() {
		if seen[c.Key()] {
			t.Errorf("duplicate key %s", c.Key())
		}
		seen[c.Key()] = true
	}
}

// TestGenMatchesOwnPattern: every generator's output must be tagged by
// its own rule — the invariant that keeps the simulator and the tagger
// consistent.
func TestGenMatchesOwnPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range All() {
		for i := 0; i < 25; i++ {
			body := c.Gen(rng)
			if !c.Regexp().MatchString(body) {
				t.Errorf("%s: generated body %q does not match pattern %q", c.Key(), body, c.Pattern)
				break
			}
		}
	}
}

// TestMatchesChecksConstraints: facility and program conjuncts must gate
// the match.
func TestMatchesChecksConstraints(t *testing.T) {
	c, ok := Lookup(logrec.BlueGeneL, "KERNDTLB")
	if !ok {
		t.Fatal("KERNDTLB missing")
	}
	rec := logrec.Record{Facility: "KERNEL", Body: "data TLB error interrupt"}
	if !c.Matches(rec) {
		t.Error("matching record rejected")
	}
	rec.Facility = "APP"
	if c.Matches(rec) {
		t.Error("facility constraint ignored")
	}

	p, ok := Lookup(logrec.Liberty, "PBS_CHK")
	if !ok {
		t.Fatal("PBS_CHK missing")
	}
	rec = logrec.Record{Program: "pbs_mom", Body: "task_check, cannot tm_reply to 1.l task 1"}
	if !p.Matches(rec) {
		t.Error("matching pbs record rejected")
	}
	rec.Program = "kernel"
	if p.Matches(rec) {
		t.Error("program constraint ignored")
	}
}

// TestBGLSeverities: Table 5 requires 62 FAILURE alerts and the rest
// FATAL.
func TestBGLSeverities(t *testing.T) {
	failure := 0
	for _, c := range BySystem(logrec.BlueGeneL) {
		switch c.Severity {
		case logrec.SevFailure:
			failure += c.Raw
		case logrec.SevFatal:
		default:
			t.Errorf("%s has severity %v; BG/L alerts are FATAL or FAILURE", c.Key(), c.Severity)
		}
	}
	if failure != 62 {
		t.Errorf("BG/L FAILURE alert count = %d, want 62 (Table 5)", failure)
	}
}

// TestRedStormSeverityMix approximates Table 6's alert column: CRIT is
// dominated by BUS_PAR, the event-path categories carry no severity.
func TestRedStormSeverityMix(t *testing.T) {
	crit, noSev := 0, 0
	for _, c := range BySystem(logrec.RedStorm) {
		switch {
		case c.Severity == logrec.SevCrit:
			crit += c.Raw
		case c.Dialect == DialectEvent:
			noSev += c.Raw
			if c.Severity != logrec.SeverityUnknown {
				t.Errorf("%s travels the TCP path but has severity %v", c.Key(), c.Severity)
			}
		}
	}
	if crit != 1550217 {
		t.Errorf("CRIT raw alerts = %d, want 1,550,217 (Table 6)", crit)
	}
	if noSev != 94784+186 {
		t.Errorf("severity-less raw alerts = %d, want 94,970 (HBEAT+TOAST)", noSev)
	}
}

// TestCommoditySystemsHaveNoSeverity: Thunderbird, Spirit, and Liberty
// "did not even record this information".
func TestCommoditySystemsHaveNoSeverity(t *testing.T) {
	for _, sys := range []logrec.System{logrec.Thunderbird, logrec.Spirit, logrec.Liberty} {
		for _, c := range BySystem(sys) {
			if c.Severity != logrec.SeverityUnknown {
				t.Errorf("%s carries severity %v", c.Key(), c.Severity)
			}
		}
	}
}

// TestDialects: BG/L categories ride the RAS database; only HBEAT and
// TOAST ride the Red Storm event path; everything else is syslog.
func TestDialects(t *testing.T) {
	for _, c := range All() {
		switch {
		case c.System == logrec.BlueGeneL:
			if c.Dialect != DialectRAS {
				t.Errorf("%s dialect = %v, want RAS", c.Key(), c.Dialect)
			}
		case c.Name == "HBEAT" || c.Name == "TOAST":
			if c.Dialect != DialectEvent {
				t.Errorf("%s dialect = %v, want Event", c.Key(), c.Dialect)
			}
		default:
			if c.Dialect != DialectSyslog {
				t.Errorf("%s dialect = %v, want Syslog", c.Key(), c.Dialect)
			}
		}
	}
}

// TestTable4OrderDescendingRaw: All() presents categories per system in
// Table 4 order.
func TestTable4OrderDescendingRaw(t *testing.T) {
	for _, sys := range logrec.Systems() {
		cats := BySystem(sys)
		for i := 1; i < len(cats); i++ {
			if cats[i].Raw > cats[i-1].Raw {
				t.Errorf("%v: %s (%d) after %s (%d)", sys, cats[i].Name, cats[i].Raw, cats[i-1].Name, cats[i-1].Raw)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup(logrec.Spirit, "EXT_CCISS"); !ok {
		t.Error("EXT_CCISS lookup failed")
	}
	if _, ok := Lookup(logrec.Spirit, "NOSUCH"); ok {
		t.Error("bogus lookup succeeded")
	}
	// Same name on a different system must not leak across.
	lib, _ := Lookup(logrec.Liberty, "GM_PAR")
	spi, _ := Lookup(logrec.Spirit, "GM_PAR")
	if lib == spi {
		t.Error("GM_PAR must be distinct per system")
	}
	if lib.Pattern == spi.Pattern {
		t.Error("Liberty and Spirit GM_PAR have different message shapes in Table 4")
	}
}

func TestTypeCodeAndString(t *testing.T) {
	if Hardware.Code() != "H" || Software.Code() != "S" || Indeterminate.Code() != "I" {
		t.Error("type codes wrong")
	}
	if Type(9).Code() != "?" {
		t.Error("unknown type code")
	}
	if len(Types()) != 3 {
		t.Error("Types() must list 3")
	}
}
