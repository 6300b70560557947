package tag

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/logrec"
)

func recFor(c *catalog.Category, rng *rand.Rand, at time.Time) logrec.Record {
	return logrec.Record{
		Time:     at,
		System:   c.System,
		Source:   "node1",
		Facility: c.Facility,
		Program:  c.Program,
		Severity: c.Severity,
		Body:     c.Gen(rng),
	}
}

// TestEveryCategoryTaggable: each category's generated messages must be
// tagged back to that category by its system's tagger.
func TestEveryCategoryTaggable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	at := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, sys := range logrec.Systems() {
		tg := NewTagger(sys)
		for _, c := range catalog.BySystem(sys) {
			for i := 0; i < 10; i++ {
				r := recFor(c, rng, at)
				got, ok := tg.Tag(&r)
				if !ok {
					t.Fatalf("%s: generated record untagged", c.Key())
				}
				if got.Name != c.Name {
					// First-match-wins can shadow a category only if two
					// rules overlap; that would be a catalog bug.
					t.Fatalf("%s: tagged as %s", c.Key(), got.Name)
				}
			}
		}
	}
}

func TestBenignBodiesUntagged(t *testing.T) {
	tg := NewTagger(logrec.Liberty)
	benign := []logrec.Record{
		{Program: "sshd", Body: "session opened for user root by (uid=0)"},
		{Program: "pbs_mom", Body: "Job 123.ladmin2 started, pid = 999"},
		{Program: "kernel", Body: "eth0: no IPv6 routers present"},
		{Body: "task_check, cannot tm_reply to 1.l task 1"}, // right body, wrong program
	}
	for _, r := range benign {
		if c, ok := tg.Tag(&r); ok {
			t.Errorf("benign record tagged as %s: %+v", c.Name, r)
		}
	}
}

func TestTagAllAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tg := NewTagger(logrec.Liberty)
	chk, _ := catalog.Lookup(logrec.Liberty, "PBS_CHK")
	par, _ := catalog.Lookup(logrec.Liberty, "GM_PAR")
	at := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	recs := []logrec.Record{
		recFor(chk, rng, at),
		{Program: "sshd", Body: "noise"},
		recFor(par, rng, at.Add(time.Second)),
		recFor(chk, rng, at.Add(2*time.Second)),
	}
	alerts := tg.TagAll(recs)
	if len(alerts) != 3 {
		t.Fatalf("tagged %d, want 3", len(alerts))
	}
	byCat := CountByCategory(alerts)
	if byCat["PBS_CHK"] != 2 || byCat["GM_PAR"] != 1 {
		t.Errorf("category counts = %v", byCat)
	}
	byType := CountByType(alerts)
	if byType[catalog.Software] != 2 || byType[catalog.Hardware] != 1 {
		t.Errorf("type counts = %v", byType)
	}
	if CategoriesObserved(alerts) != 2 {
		t.Errorf("observed categories = %d, want 2", CategoriesObserved(alerts))
	}
}

func TestSeverityTagger(t *testing.T) {
	st := NewBGLSeverityTagger()
	if !st.Tag(logrec.Record{Severity: logrec.SevFatal}) {
		t.Error("FATAL should be tagged")
	}
	if !st.Tag(logrec.Record{Severity: logrec.SevFailure}) {
		t.Error("FAILURE should be tagged")
	}
	if st.Tag(logrec.Record{Severity: logrec.SevInfoBGL}) {
		t.Error("INFO should not be tagged")
	}
	if st.Tag(logrec.Record{}) {
		t.Error("unknown severity should not be tagged")
	}
}

func TestCompareSeverityBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tg := NewTagger(logrec.BlueGeneL)
	dtlb, _ := catalog.Lookup(logrec.BlueGeneL, "KERNDTLB")
	at := time.Date(2005, 6, 3, 0, 0, 0, 0, time.UTC)

	recs := []logrec.Record{
		recFor(dtlb, rng, at), // TP: FATAL alert
		{Severity: logrec.SevFatal, Facility: "KERNEL", Body: "benign fatal chatter"},    // FP
		{Severity: logrec.SevInfoBGL, Facility: "KERNEL", Body: "informational message"}, // TN
	}
	conf := CompareSeverityBaseline(recs, tg, NewBGLSeverityTagger())
	if conf.TruePositive != 1 || conf.FalsePositive != 1 || conf.TrueNegative != 1 || conf.FalseNegative != 0 {
		t.Errorf("confusion = %+v", conf)
	}
	if fp := conf.FalsePositiveRate(); fp != 0.5 {
		t.Errorf("FP rate = %v, want 0.5", fp)
	}
	if fn := conf.FalseNegativeRate(); fn != 0 {
		t.Errorf("FN rate = %v, want 0", fn)
	}
}

func TestConfusionRatesEmpty(t *testing.T) {
	var c Confusion
	if c.FalsePositiveRate() != 0 || c.FalseNegativeRate() != 0 {
		t.Error("empty confusion must have zero rates")
	}
}

func TestBreakdownBySeverity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tg := NewTagger(logrec.BlueGeneL)
	dtlb, _ := catalog.Lookup(logrec.BlueGeneL, "KERNDTLB")
	at := time.Date(2005, 6, 3, 0, 0, 0, 0, time.UTC)
	recs := []logrec.Record{
		recFor(dtlb, rng, at),
		{Severity: logrec.SevInfoBGL, Body: "noise"},
		{Severity: logrec.SevInfoBGL, Body: "noise"},
	}
	b := BreakdownBySeverity(recs, tg)
	if b.Total != 3 || b.TotalAl != 1 {
		t.Errorf("totals = %d/%d", b.Total, b.TotalAl)
	}
	if b.Messages[logrec.SevFatal] != 1 || b.Messages[logrec.SevInfoBGL] != 2 {
		t.Errorf("message breakdown = %v", b.Messages)
	}
	if b.Alerts[logrec.SevFatal] != 1 || b.Alerts[logrec.SevInfoBGL] != 0 {
		t.Errorf("alert breakdown = %v", b.Alerts)
	}
}

func TestSortAlerts(t *testing.T) {
	at := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	c, _ := catalog.Lookup(logrec.Liberty, "PBS_CHK")
	alerts := []Alert{
		{Record: logrec.Record{Time: at.Add(5 * time.Second), Seq: 1}, Category: c},
		{Record: logrec.Record{Time: at, Seq: 2}, Category: c},
		{Record: logrec.Record{Time: at, Seq: 0}, Category: c},
	}
	SortAlerts(alerts)
	if alerts[0].Record.Seq != 0 || alerts[1].Record.Seq != 2 || alerts[2].Record.Seq != 1 {
		t.Errorf("sort order wrong: %v %v %v", alerts[0].Record.Seq, alerts[1].Record.Seq, alerts[2].Record.Seq)
	}
	if alerts[0].Time() != at.Unix() {
		t.Error("Alert.Time() must expose the record time")
	}
}

// TestSortAlertsMatchesStableSort: SortAlerts is a stable sort — alerts
// that compare equal keep their input order — on sorted, nearly sorted
// and shuffled input with many equal keys.
func TestSortAlertsMatchesStableSort(t *testing.T) {
	at := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	c, _ := catalog.Lookup(logrec.Liberty, "PBS_CHK")
	rng := rand.New(rand.NewSource(11))
	for _, swaps := range []int{0, 3, 2000} {
		alerts := make([]Alert, 2000)
		for i := range alerts {
			alerts[i] = Alert{Record: logrec.Record{Time: at.Add(time.Duration(i/40) * time.Second), Seq: uint64(i / 20), Source: fmt.Sprint(i)}, Category: c}
		}
		for k := 0; k < swaps; k++ {
			i, j := rng.Intn(len(alerts)), rng.Intn(len(alerts))
			alerts[i], alerts[j] = alerts[j], alerts[i]
		}
		want := append([]Alert(nil), alerts...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Record.Before(&want[j].Record) })
		SortAlerts(alerts)
		for i := range alerts {
			if alerts[i] != want[i] {
				t.Fatalf("swaps=%d: alert %d is %s, want %s", swaps, i, alerts[i].Record.Key(), want[i].Record.Key())
			}
		}
	}
}

// TestRuleOrderMatchesTable4: rules apply in descending raw-count order.
func TestRuleOrderMatchesTable4(t *testing.T) {
	rules := NewTagger(logrec.Thunderbird).Rules()
	if rules[0].Name != "VAPI" {
		t.Errorf("first Thunderbird rule = %s, want VAPI", rules[0].Name)
	}
	if rules[len(rules)-1].Name != "NMI" {
		t.Errorf("last Thunderbird rule = %s, want NMI", rules[len(rules)-1].Name)
	}
}

// TestOverlappingPatternDisambiguation: Spirit's EXT_FS and Thunderbird's
// EXT_FS share a pattern but live on different systems; and APPSEV vs
// APPRES differ only in LOGIN vs LOAD.
func TestOverlappingPatternDisambiguation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tg := NewTagger(logrec.BlueGeneL)
	sev, _ := catalog.Lookup(logrec.BlueGeneL, "APPSEV")
	res, _ := catalog.Lookup(logrec.BlueGeneL, "APPRES")
	at := time.Date(2005, 6, 3, 0, 0, 0, 0, time.UTC)
	r := recFor(sev, rng, at)
	if got, _ := tg.Tag(&r); got.Name != "APPSEV" {
		t.Errorf("LOGIN_MESSAGE variant tagged %s", got.Name)
	}
	r = recFor(res, rng, at)
	if got, _ := tg.Tag(&r); got.Name != "APPRES" {
		t.Errorf("LOAD_MESSAGE variant tagged %s", got.Name)
	}
}
