package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/filter"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/simulate"
	"whatsupersay/internal/stats"
)

const testScale = 0.0002

var (
	studyCache   = map[logrec.System]*Study{}
	studyCacheMu sync.Mutex
)

func study(t *testing.T, sys logrec.System) *Study {
	t.Helper()
	studyCacheMu.Lock()
	defer studyCacheMu.Unlock()
	if s, ok := studyCache[sys]; ok {
		return s
	}
	s, err := New(simulate.Config{System: sys, Scale: testScale, Seed: 77})
	if err != nil {
		t.Fatalf("New(%v): %v", sys, err)
	}
	studyCache[sys] = s
	return s
}

func allStudies(t *testing.T) []*Study {
	t.Helper()
	out := make([]*Study, 0, 5)
	for _, sys := range logrec.Systems() {
		out = append(out, study(t, sys))
	}
	return out
}

func TestStudyPipelineInvariants(t *testing.T) {
	for _, s := range allStudies(t) {
		if len(s.Records) == 0 || len(s.Alerts) == 0 || len(s.Filtered) == 0 {
			t.Fatalf("%v study empty", s.System)
		}
		if len(s.Filtered) >= len(s.Alerts) {
			t.Errorf("%v: filtering removed nothing (%d -> %d)", s.System, len(s.Alerts), len(s.Filtered))
		}
		if !logrec.IsSorted(s.Records) {
			t.Errorf("%v records not sorted", s.System)
		}
		for i := 1; i < len(s.Alerts); i++ {
			if s.Alerts[i].Record.Before(s.Alerts[i-1].Record) {
				t.Errorf("%v alerts not sorted", s.System)
				break
			}
		}
	}
}

func TestFromRecords(t *testing.T) {
	src := study(t, logrec.Liberty)
	s := FromRecords(logrec.Liberty, src.Records)
	if len(s.Alerts) != len(src.Alerts) {
		t.Errorf("FromRecords alerts = %d, want %d", len(s.Alerts), len(src.Alerts))
	}
	if s.Source != nil {
		t.Error("FromRecords must have no synthetic source")
	}
	if _, ok := s.IncidentFn()(s.Alerts[0]); ok {
		t.Error("no ground truth available for ingested records")
	}
}

func TestTable1(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"Blue Gene/L", "131072", "Thunderbird", "Myrinet", "445"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Data(t *testing.T) {
	studies := allStudies(t)
	rows, err := Table2Data(studies)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[logrec.System]Table2Row{}
	for _, r := range rows {
		byName[r.System] = r
		if r.Compressed <= 0 || r.Compressed >= r.Bytes {
			t.Errorf("%v compression broken: %d of %d", r.System, r.Compressed, r.Bytes)
		}
		if r.BytesPerSec <= 0 {
			t.Errorf("%v rate = %v", r.System, r.BytesPerSec)
		}
		if r.Messages <= r.Alerts {
			t.Errorf("%v messages (%d) must exceed alerts (%d)", r.System, r.Messages, r.Alerts)
		}
	}
	// Table 2 shape checks that survive scaling. (Total-message
	// ordering does not: the small alert categories are generated at
	// exact paper counts regardless of Scale, which at the test scale
	// makes BG/L's unscaled alerts plus its ratio-preserved FATAL
	// background comparable to the other systems' scaled volumes. At
	// Scale=1 the volumes match Table 2 by construction — see the
	// catalog calibration tests.)
	// Spirit has the most alerts (the disk storms).
	for _, sys := range []logrec.System{logrec.BlueGeneL, logrec.Thunderbird, logrec.RedStorm, logrec.Liberty} {
		if byName[sys].Alerts >= byName[logrec.Spirit].Alerts {
			t.Errorf("%v alerts (%d) >= Spirit alerts (%d)", sys, byName[sys].Alerts, byName[logrec.Spirit].Alerts)
		}
	}
	// Liberty has by far the fewest alerts (2,452 in the paper).
	for _, sys := range []logrec.System{logrec.BlueGeneL, logrec.Thunderbird, logrec.RedStorm, logrec.Spirit} {
		if byName[sys].Alerts <= byName[logrec.Liberty].Alerts {
			t.Errorf("Liberty should have the fewest alerts")
		}
	}
	// Days match Table 2.
	if byName[logrec.Spirit].Days != 558 || byName[logrec.RedStorm].Days != 104 {
		t.Error("collection windows wrong")
	}
	// Logs compress heavily (the paper's gzip column shows 5-35x).
	for _, r := range rows {
		ratio := float64(r.Bytes) / float64(r.Compressed)
		if ratio < 4 {
			t.Errorf("%v compression ratio %.1f, want > 4 (repetitive logs)", r.System, ratio)
		}
	}
}

func TestTable3FilteredMatchesPaper(t *testing.T) {
	d := Table3Compute(allStudies(t))
	// Filtered counts are scale-independent; compare to Table 3 within
	// 5%.
	want := map[catalog.Type]int{
		catalog.Hardware:      1999,
		catalog.Software:      6814,
		catalog.Indeterminate: 1832,
	}
	for ty, target := range want {
		got := d.Filtered[ty]
		tol := target / 20
		if got < target-tol || got > target+tol {
			t.Errorf("filtered %v = %d, want %d +/- %d", ty, got, target, tol)
		}
	}
	// Raw: hardware dominates (98% at full scale; still the plurality
	// at small scale).
	if d.Raw[catalog.Hardware] <= d.Raw[catalog.Software] || d.Raw[catalog.Hardware] <= d.Raw[catalog.Indeterminate] {
		t.Errorf("raw hardware (%d) must dominate: S=%d I=%d",
			d.Raw[catalog.Hardware], d.Raw[catalog.Software], d.Raw[catalog.Indeterminate])
	}
	// The inversion: filtering makes software the most common type.
	if d.Filtered[catalog.Software] <= d.Filtered[catalog.Hardware] {
		t.Error("filtering must invert the distribution toward software")
	}
}

func TestTable4Data(t *testing.T) {
	s := study(t, logrec.Liberty)
	rows := Table4Data(s)
	if len(rows) != 6 {
		t.Fatalf("Liberty rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Filtered > r.Raw {
			t.Errorf("%s filtered %d > raw %d", r.Category.Name, r.Filtered, r.Raw)
		}
		// Measured filtered counts track the paper's within a small
		// tolerance.
		tol := r.Category.Filtered/10 + 3
		if r.Filtered < r.Category.Filtered-tol || r.Filtered > r.Category.Filtered+tol {
			t.Errorf("%s filtered = %d, want ~%d", r.Category.Name, r.Filtered, r.Category.Filtered)
		}
	}
}

func TestTable5FalsePositiveRate(t *testing.T) {
	bgl := study(t, logrec.BlueGeneL)
	conf := Table5Baseline(bgl)
	if conf.FalseNegativeRate() != 0 {
		t.Errorf("FN rate = %v, want 0 (every expert alert is FATAL/FAILURE)", conf.FalseNegativeRate())
	}
	fp := conf.FalsePositiveRate()
	if fp < 0.55 || fp > 0.65 {
		t.Errorf("FP rate = %.4f, want ~0.5934", fp)
	}
	rows := Table5Data(bgl)
	// Alerts concentrate in FATAL (99.98% in Table 5).
	var fatal, total int
	for _, r := range rows {
		total += r.Alerts
		if r.Severity == logrec.SevFatal {
			fatal = r.Alerts
		}
	}
	if frac := float64(fatal) / float64(total); frac < 0.99 {
		t.Errorf("FATAL alert share = %.4f, want ~0.9998", frac)
	}
}

func TestTable6Shape(t *testing.T) {
	rs := study(t, logrec.RedStorm)
	rows := Table6Data(rs)
	byName := map[logrec.Severity]SeverityRow{}
	for _, r := range rows {
		byName[r.Severity] = r
	}
	// CRIT alerts are essentially all of CRIT messages (disk failure
	// storms: 1,550,217 of 1,552,910 in Table 6).
	crit := byName[logrec.SevCrit]
	if crit.Alerts == 0 || crit.Messages == 0 {
		t.Fatal("CRIT row empty")
	}
	if frac := float64(crit.Alerts) / float64(crit.Messages); frac < 0.9 {
		t.Errorf("CRIT alert share = %.3f, want ~0.99", frac)
	}
	// NOTICE and DEBUG carry no alerts.
	if byName[logrec.SevNotice].Alerts != 0 || byName[logrec.SevDebug].Alerts != 0 {
		t.Error("NOTICE/DEBUG must carry no alerts")
	}
	// INFO carries alerts (the DMT address errors logged at INFO) —
	// the paper's evidence that severity is unreliable.
	if byName[logrec.SevInfo].Alerts == 0 {
		t.Error("INFO should carry some alerts (DMT_102/DMT_310)")
	}
	if byName[logrec.SevInfo].Messages <= byName[logrec.SevInfo].Alerts {
		t.Error("INFO is mostly non-alert chatter")
	}
}

func TestFigure2aDetectsUpgrade(t *testing.T) {
	lib := study(t, logrec.Liberty)
	d := Figure2a(lib)
	if len(d.Hourly) != 315*24 {
		t.Fatalf("hourly buckets = %d, want %d", len(d.Hourly), 315*24)
	}
	if len(d.ChangePoints) == 0 {
		t.Fatal("no change points detected")
	}
	upgradeHour := int(time.Date(2005, time.March, 31, 8, 0, 0, 0, time.UTC).Sub(d.Start).Hours())
	found := false
	for _, cp := range d.ChangePoints {
		if cp.Index > upgradeHour-72 && cp.Index < upgradeHour+72 && cp.After > cp.Before {
			found = true
		}
	}
	if !found {
		t.Errorf("OS upgrade shift not found near hour %d: %+v", upgradeHour, d.ChangePoints)
	}
}

func TestFigure2bRanking(t *testing.T) {
	lib := study(t, logrec.Liberty)
	d := Figure2b(lib)
	if len(d.Ranked) < 100 {
		t.Fatalf("sources = %d", len(d.Ranked))
	}
	if !strings.HasPrefix(d.Ranked[0].Source, "ladmin") {
		t.Errorf("top source = %q, want an admin node", d.Ranked[0].Source)
	}
	// Ranking is non-increasing.
	for i := 1; i < len(d.Ranked); i++ {
		if d.Ranked[i].Count > d.Ranked[i-1].Count {
			t.Fatal("ranking not sorted")
		}
	}
	if d.CorruptedSources == 0 {
		t.Error("the corrupted-attribution cluster is missing")
	}
	// Corrupted sources live in the reticent tail (Figure 2(b)'s bottom
	// cluster): each garbled token appears far less often than the
	// median real source.
	var corrupted []int
	for _, sc := range d.Ranked {
		if !plausibleHostname(sc.Source) {
			corrupted = append(corrupted, sc.Count)
		}
	}
	for _, c := range corrupted {
		if c > d.Ranked[len(d.Ranked)/4].Count {
			t.Errorf("a corrupted source has %d messages, too chatty for the tail", c)
		}
	}
}

func TestFigure3Correlation(t *testing.T) {
	lib, err := New(simulate.Config{System: logrec.Liberty, Scale: testScale, AlertScale: 1, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	d := Figure3(lib, "GM_PAR", "GM_LANAI")
	if len(d.Primary) == 0 || len(d.Secondary) == 0 {
		t.Fatal("empty figure 3 series")
	}
	if d.Correlation < 0.25 {
		t.Errorf("GM_PAR/GM_LANAI daily correlation = %.2f, want clearly positive", d.Correlation)
	}
	// Control: two unrelated categories should correlate weakly.
	ctrl := Figure3(lib, "PBS_CON", "GM_PAR")
	if ctrl.Correlation > d.Correlation {
		t.Errorf("control correlation %.2f exceeds the correlated pair %.2f", ctrl.Correlation, d.Correlation)
	}
}

func TestFigure4Lanes(t *testing.T) {
	lib := study(t, logrec.Liberty)
	d := Figure4(lib)
	if len(d.Categories) != 6 {
		t.Errorf("lanes = %d, want 6 categories", len(d.Categories))
	}
	if len(d.Points) != len(lib.Filtered) {
		t.Errorf("points = %d, want %d", len(d.Points), len(lib.Filtered))
	}
}

func TestFigure5ECC(t *testing.T) {
	tb := study(t, logrec.Thunderbird)
	d, err := Figure5(tb, "ECC")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Interarrivals) < 100 {
		t.Fatalf("ECC gaps = %d, want ~142", len(d.Interarrivals))
	}
	// ECC events are a homogeneous Poisson process: the exponential fit
	// must not be rejected outright.
	if d.ExpKS.PValue < 0.001 {
		t.Errorf("exponential KS p = %v; ECC must look exponential (Figure 5)", d.ExpKS.PValue)
	}
	if d.Exponential.Lambda <= 0 {
		t.Error("lambda must be positive")
	}
	// The lognormal fit is also plausible in log view ("roughly log
	// normal with a heavy left tail").
	if d.Lognormal.Sigma <= 0 {
		t.Error("lognormal fit degenerate")
	}
	// The Weibull shape parameter is near 1: the process is memoryless,
	// confirming independence from a second angle.
	if d.Weibull.K < 0.75 || d.Weibull.K > 1.35 {
		t.Errorf("Weibull k = %.2f, want ~1 for a Poisson process", d.Weibull.K)
	}
}

func TestFigure6Modality(t *testing.T) {
	bgl := study(t, logrec.BlueGeneL)
	spirit := study(t, logrec.Spirit)
	db := Figure6(bgl)
	ds := Figure6(spirit)
	if db.Modes < 2 {
		t.Errorf("BG/L filtered interarrivals: modes = %d, want >= 2 (Figure 6(a) bimodal)", db.Modes)
	}
	if ds.Modes != 1 {
		t.Errorf("Spirit filtered interarrivals: modes = %d, want 1 (Figure 6(b) unimodal)", ds.Modes)
	}
}

// TestCorrelationAwareRemovesBimodality: the Section 5 future-work
// filter. BG/L's Figure 6(a) first mode is cross-category correlation
// within failure episodes; the correlation-aware filter learns the
// groups and collapses it, leaving a unimodal distribution — while plain
// Algorithm 3.1 leaves it bimodal.
func TestCorrelationAwareRemovesBimodality(t *testing.T) {
	bgl := study(t, logrec.BlueGeneL)
	plain := Figure6(bgl)
	if plain.Modes < 2 {
		t.Fatalf("precondition: plain filtering should be bimodal, got %d modes", plain.Modes)
	}
	aware := filter.CorrelationAware{T: filter.DefaultThreshold}
	collapsed := aware.Filter(bgl.Alerts)
	gaps := stats.Interarrivals(AlertTimes(collapsed))
	h := stats.NewLogHistogram(gaps, 0, 7, 2)
	if m := h.Modes(1, 0.25); m != 1 {
		t.Errorf("correlation-aware modes = %d, want 1 (first mode collapsed)", m)
	}
	if len(collapsed) >= len(bgl.Filtered) {
		t.Errorf("correlation-aware kept %d >= plain %d", len(collapsed), len(bgl.Filtered))
	}
}

// TestCorrelationAwareLearnsLibertyPairs: on Liberty, the learned groups
// recover the paper's two documented correlations without supervision.
func TestCorrelationAwareLearnsLibertyPairs(t *testing.T) {
	lib, err := New(simulate.Config{System: logrec.Liberty, Scale: testScale, AlertScale: 1, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	groups := filter.CorrelationAware{T: filter.DefaultThreshold, GroupWindow: 35 * time.Minute}.Learn(lib.Alerts)
	sameGroup := func(a, b string) bool {
		ga, ok1 := groups.GroupOf(a)
		gb, ok2 := groups.GroupOf(b)
		return ok1 && ok2 && ga == gb
	}
	if !sameGroup("PBS_CHK", "PBS_BFD") {
		t.Error("PBS_CHK/PBS_BFD not learned (Figure 4's correlated siblings)")
	}
	if !sameGroup("GM_PAR", "GM_LANAI") {
		t.Error("GM_PAR/GM_LANAI not learned (Figure 3's correlation)")
	}
	if sameGroup("PBS_CHK", "GM_PAR") {
		t.Error("unrelated categories merged")
	}
}

func TestCompareFiltersClaims(t *testing.T) {
	spirit := study(t, logrec.Spirit)
	results := CompareFilters(spirit,
		filter.Simultaneous{T: filter.DefaultThreshold},
		filter.Serial{T: filter.DefaultThreshold})
	sim, ser := results[0], results[1]
	if sim.Algorithm != "simultaneous" || ser.Algorithm != "serial" {
		t.Fatal("result order")
	}
	// Simultaneous keeps no more than serial.
	if sim.Stats.Output > ser.Stats.Output {
		t.Errorf("simultaneous kept %d > serial %d", sim.Stats.Output, ser.Stats.Output)
	}
	// The alerts-per-failure ratio is "nearly one" for both.
	if apf := sim.Accuracy.AlertsPerFailure(); apf < 0.99 || apf > 1.05 {
		t.Errorf("simultaneous alerts/failure = %.3f", apf)
	}
	// Serial keeps redundant alerts that simultaneous removes...
	if ser.Accuracy.RedundantKept <= sim.Accuracy.RedundantKept {
		t.Errorf("serial redundant %d <= simultaneous %d", ser.Accuracy.RedundantKept, sim.Accuracy.RedundantKept)
	}
	// ...at the cost of a handful of extra missed incidents: the planted
	// sn325 coincidence plus an occasional random same-category collision
	// among Spirit's 4,875 incidents (the sn325 case itself is pinned
	// exactly in the simulate tests).
	if extra := sim.Accuracy.MissedIncidents - ser.Accuracy.MissedIncidents; extra < 0 || extra > 3 {
		t.Errorf("simultaneous misses %d more incidents than serial, want a small non-negative count", extra)
	}
	diff := SurvivorDiff(spirit, filter.Serial{T: filter.DefaultThreshold}, filter.Simultaneous{T: filter.DefaultThreshold})
	total := 0
	for _, n := range diff {
		total += n
	}
	if total == 0 {
		t.Error("serial should keep some alerts simultaneous removes")
	}
	// The disagreement concentrates in shared-resource categories (PBS
	// on the commodity clusters).
	if diff["PBS_CON"] == 0 && diff["PBS_CHK"] == 0 && diff["PBS_BFD"] == 0 {
		t.Errorf("PBS categories absent from the disagreement: %v", diff)
	}
}

func TestAdaptiveThresholds(t *testing.T) {
	spirit := study(t, logrec.Spirit)
	th := AdaptiveThresholds(spirit)
	if len(th) == 0 {
		t.Fatal("no thresholds derived")
	}
	// Storm categories get wide windows; near-singleton categories get
	// narrow ones.
	if th["EXT_CCISS"] < 30*time.Second {
		t.Errorf("EXT_CCISS window = %v, want wide", th["EXT_CCISS"])
	}
	if th["PBS_BFD"] > filter.DefaultThreshold {
		t.Errorf("PBS_BFD window = %v, want <= default (raw~filtered)", th["PBS_BFD"])
	}
	// Adaptive filtering still detects every incident the default does,
	// with no more survivors than raw alerts.
	adapted := filter.Adaptive{Thresholds: th, Default: filter.DefaultThreshold}.Filter(spirit.Alerts)
	if len(adapted) == 0 || len(adapted) > len(spirit.Alerts) {
		t.Errorf("adaptive survivors = %d", len(adapted))
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	lib := study(t, logrec.Liberty)
	tb := study(t, logrec.Thunderbird)
	var b strings.Builder
	RenderFigure2a(&b, lib)
	RenderFigure2b(&b, lib, 5)
	RenderFigure3(&b, lib, "GM_PAR", "GM_LANAI")
	RenderFigure4(&b, lib)
	if err := RenderFigure5(&b, tb, "ECC"); err != nil {
		t.Fatal(err)
	}
	RenderFigure6(&b, study(t, logrec.Spirit))
	out := b.String()
	for _, want := range []string{"Figure 2(a)", "Figure 2(b)", "Figure 3", "Figure 4", "Figure 5", "Figure 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendered output", want)
		}
	}
}

func TestCompressedBytesDeterministic(t *testing.T) {
	lib := study(t, logrec.Liberty)
	a, err := lib.CompressedBytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := lib.CompressedBytes()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("compression must be deterministic")
	}
}

func TestAlertHelpers(t *testing.T) {
	lib := study(t, logrec.Liberty)
	chk := AlertsOfCategory(lib.Filtered, "PBS_CHK")
	if len(chk) == 0 {
		t.Fatal("no PBS_CHK alerts")
	}
	for _, a := range chk {
		if a.Category.Name != "PBS_CHK" {
			t.Fatal("category filter broken")
		}
	}
	times := AlertTimes(chk)
	if len(times) != len(chk) {
		t.Fatal("times length mismatch")
	}
}
