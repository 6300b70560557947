package simulate

import (
	"strings"
	"sync"
	"testing"
	"time"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/filter"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/stats"
	"whatsupersay/internal/tag"
)

// testScale keeps the suite fast while leaving every structural effect
// intact (small categories are generated at exact paper counts).
const testScale = 0.0002

var (
	genCache   = map[logrec.System]*Output{}
	genCacheMu sync.Mutex
)

// gen returns a cached synthetic log for the system at the test scale.
func gen(t *testing.T, sys logrec.System) *Output {
	t.Helper()
	genCacheMu.Lock()
	defer genCacheMu.Unlock()
	if out, ok := genCache[sys]; ok {
		return out
	}
	out, err := Generate(Config{System: sys, Scale: testScale, Seed: 99})
	if err != nil {
		t.Fatalf("Generate(%v): %v", sys, err)
	}
	genCache[sys] = out
	return out
}

// tagged returns the sorted expert-tagged alerts of a generated log.
func tagged(t *testing.T, out *Output) []tag.Alert {
	t.Helper()
	recs := make([]logrec.Record, len(out.Records))
	copy(recs, out.Records)
	logrec.SortRecords(recs)
	alerts := tag.NewTagger(out.Config.System).TagAll(recs)
	tag.SortAlerts(alerts)
	return alerts
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{System: logrec.Liberty, Scale: 2}); err == nil {
		t.Error("scale > 1 must be rejected")
	}
	if _, err := Generate(Config{System: logrec.Liberty, Scale: -0.1}); err == nil {
		t.Error("negative scale must be rejected")
	}
	if _, err := Generate(Config{System: logrec.System(77)}); err == nil {
		t.Error("unknown system must be rejected")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(Config{System: logrec.Liberty, Scale: 0.0001, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{System: logrec.Liberty, Scale: 0.0001, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Lines) != len(b.Lines) {
		t.Fatalf("line counts differ: %d vs %d", len(a.Lines), len(b.Lines))
	}
	for i := range a.Lines {
		if a.Lines[i] != b.Lines[i] {
			t.Fatalf("same seed diverged at line %d:\n%q\n%q", i, a.Lines[i], b.Lines[i])
		}
	}
	c, err := Generate(Config{System: logrec.Liberty, Scale: 0.0001, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Lines) == len(c.Lines)
	if same {
		diff := false
		for i := range a.Lines {
			if a.Lines[i] != c.Lines[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical logs")
	}
}

func TestWindowMatchesMachine(t *testing.T) {
	for _, sys := range logrec.Systems() {
		out := gen(t, sys)
		if !out.Start.Equal(out.Machine.LogStart) || !out.End.Equal(out.Machine.LogEnd()) {
			t.Errorf("%v window mismatch", sys)
		}
		for _, r := range out.Records {
			if r.Corrupted {
				continue // damaged timestamps may land anywhere
			}
			if r.Time.Before(out.Start.Add(-24*time.Hour)) || r.Time.After(out.End.Add(24*time.Hour)) {
				t.Errorf("%v record far outside window: %v", sys, r.Time)
				break
			}
		}
	}
}

func TestLinesAndRecordsAligned(t *testing.T) {
	out := gen(t, logrec.Liberty)
	if len(out.Lines) != len(out.Records) {
		t.Fatalf("lines %d != records %d", len(out.Lines), len(out.Records))
	}
	for i, r := range out.Records {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has Seq %d", i, r.Seq)
		}
	}
}

// TestFilteredCalibration pins the headline reproduction: filtered alert
// counts per system match Table 4 (within a small tolerance for episode
// clustering and window-edge truncation).
func TestFilteredCalibration(t *testing.T) {
	want := map[logrec.System]int{
		logrec.BlueGeneL:   1202,
		logrec.Thunderbird: 2088,
		logrec.RedStorm:    1430,
		logrec.Spirit:      4875,
		logrec.Liberty:     1050,
	}
	for sys, target := range want {
		out := gen(t, sys)
		alerts := tagged(t, out)
		filtered := filter.Simultaneous{}.Filter(alerts)
		got := len(filtered)
		tol := target / 20 // 5%
		if got < target-tol || got > target+tol {
			t.Errorf("%v filtered = %d, want %d +/- %d", sys, got, target, tol)
		}
	}
}

// TestCategoriesObserved pins Table 2's "Categories" column: every
// category of every system appears in its log.
func TestCategoriesObserved(t *testing.T) {
	want := map[logrec.System]int{
		logrec.BlueGeneL:   41,
		logrec.Thunderbird: 10,
		logrec.RedStorm:    12,
		logrec.Spirit:      8,
		logrec.Liberty:     6,
	}
	for sys, n := range want {
		alerts := tagged(t, gen(t, sys))
		if got := tag.CategoriesObserved(alerts); got != n {
			t.Errorf("%v observed %d categories, want %d", sys, got, n)
		}
	}
}

// TestSmallCategoriesExact: categories under the smallRaw threshold are
// generated at their exact paper counts (modulo transport loss,
// corruption, and window-end burst truncation, all rare).
func TestSmallCategoriesExact(t *testing.T) {
	out := gen(t, logrec.Liberty)
	alerts := tagged(t, out)
	byCat := tag.CountByCategory(alerts)
	for _, c := range catalog.BySystem(logrec.Liberty) {
		got := byCat[c.Name]
		// Slack: UDP loss and corruption scale with volume; a burst
		// rooted near the window end can additionally truncate a few
		// messages, so the floor covers one truncated tail plus a drop.
		slack := 4 + c.Raw/50
		if got < c.Raw-slack || got > c.Raw {
			t.Errorf("Liberty %s raw = %d, want ~%d", c.Name, got, c.Raw)
		}
	}
}

// TestSpiritSn373Dominance: "node id sn373 logged ... more than half of
// all Spirit alerts".
func TestSpiritSn373Dominance(t *testing.T) {
	alerts := tagged(t, gen(t, logrec.Spirit))
	bySource := map[string]int{}
	diskTotal, diskSn373 := 0, 0
	for _, a := range alerts {
		bySource[a.Record.Source]++
		if a.Category.Name == "EXT_CCISS" || a.Category.Name == "EXT_FS" {
			diskTotal++
			if a.Record.Source == "sn373" {
				diskSn373++
			}
		}
	}
	// sn373 must be the single most prolific alert source.
	top, topCount := "", 0
	for s, c := range bySource {
		if c > topCount {
			top, topCount = s, c
		}
	}
	if top != "sn373" {
		t.Errorf("top alert source = %q (%d), want sn373", top, topCount)
	}
	// Its share of the disk categories is the paper's "more than half"
	// (the share of *all* alerts depends on Scale, because the disk
	// categories scale while the small software categories stay exact).
	if frac := float64(diskSn373) / float64(diskTotal); frac < 0.45 || frac > 0.62 {
		t.Errorf("sn373 disk-alert share = %.2f, want ~0.52", frac)
	}
}

// TestThunderbirdVAPIHotNode: "A single node was responsible for 643,925
// of them [~20%], of which filtering removes all but 246."
func TestThunderbirdVAPIHotNode(t *testing.T) {
	alerts := tagged(t, gen(t, logrec.Thunderbird))
	var vapi []tag.Alert
	for _, a := range alerts {
		if a.Category.Name == "VAPI" {
			vapi = append(vapi, a)
		}
	}
	hot := 0
	for _, a := range vapi {
		if a.Record.Source == "tn42" {
			hot++
		}
	}
	// The paper's share is ~20%; at tiny scales the hot node's 246
	// incident floors inflate its share, so accept a wider band.
	if frac := float64(hot) / float64(len(vapi)); frac < 0.12 || frac > 0.42 {
		t.Errorf("hot node share = %.2f, want ~0.20 (scale-inflated up to ~0.4)", frac)
	}
	filtered := filter.Simultaneous{}.Filter(vapi)
	hotFiltered := 0
	for _, a := range filtered {
		if a.Record.Source == "tn42" {
			hotFiltered++
		}
	}
	if hotFiltered < 200 || hotFiltered > 260 {
		t.Errorf("hot node filtered = %d, want ~246", hotFiltered)
	}
}

// TestLibertyPBSBugWindow: the PBS bug lives in the final quarter of the
// window (Figure 4's horizontal clusters).
func TestLibertyPBSBugWindow(t *testing.T) {
	out := gen(t, logrec.Liberty)
	alerts := tagged(t, out)
	bugStart := out.End.AddDate(0, 0, -80)
	for _, a := range alerts {
		if a.Category.Name != "PBS_CHK" || a.Record.Corrupted {
			continue
		}
		if a.Record.Time.Before(bugStart) {
			t.Fatalf("PBS_CHK alert at %v, before the bug window %v", a.Record.Time, bugStart)
		}
	}
}

// TestLibertyGMCorrelation: Figure 3's correlation between GM_PAR and
// GM_LANAI. Most LANAI incidents follow a parity incident within an hour.
func TestLibertyGMCorrelation(t *testing.T) {
	out, err := Generate(Config{System: logrec.Liberty, Scale: 0.0002, AlertScale: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var par, lanai []time.Time
	for _, inc := range out.Truth.Incidents {
		switch inc.Category {
		case "GM_PAR":
			par = append(par, inc.Time)
		case "GM_LANAI":
			lanai = append(lanai, inc.Time)
		}
	}
	if len(par) == 0 || len(lanai) == 0 {
		t.Fatal("missing GM incidents")
	}
	near := 0
	for _, l := range lanai {
		for _, p := range par {
			if d := l.Sub(p); d >= 0 && d <= time.Hour {
				near++
				break
			}
		}
	}
	if frac := float64(near) / float64(len(lanai)); frac < 0.4 {
		t.Errorf("only %.0f%% of LANAI incidents follow a parity incident", 100*frac)
	}
}

// TestLibertyRegimeShift: Figure 2(a)'s OS-upgrade step change is
// detectable in the hourly message series.
func TestLibertyRegimeShift(t *testing.T) {
	out := gen(t, logrec.Liberty)
	times := make([]time.Time, 0, len(out.Records))
	for _, r := range out.Records {
		times = append(times, r.Time)
	}
	hourly := stats.BucketCounts(times, out.Start, out.End, time.Hour)
	cps := stats.DetectChangePoints(hourly, 4, 20)
	if len(cps) == 0 {
		t.Fatal("no regime shift detected")
	}
	upgrade := time.Date(2005, time.March, 31, 8, 0, 0, 0, time.UTC)
	upgradeHour := int(upgrade.Sub(out.Start).Hours())
	found := false
	for _, cp := range cps {
		if cp.Index > upgradeHour-72 && cp.Index < upgradeHour+72 {
			found = true
			if cp.After <= cp.Before {
				t.Error("the OS upgrade shift must increase traffic")
			}
		}
	}
	if !found {
		t.Errorf("no change point near the OS upgrade hour %d: %+v", upgradeHour, cps)
	}
}

// TestAdminNodesChatty: Figure 2(b): "The most prolific sources were
// administrative nodes or those with significant problems."
func TestAdminNodesChatty(t *testing.T) {
	out := gen(t, logrec.Liberty)
	bySource := map[string]int{}
	for _, r := range out.Records {
		bySource[r.Source]++
	}
	top, topCount := "", 0
	for s, c := range bySource {
		if c > topCount {
			top, topCount = s, c
		}
	}
	if !strings.HasPrefix(top, "ladmin") {
		t.Errorf("top source = %q (%d msgs), want an admin node", top, topCount)
	}
}

// TestCorruptionPresent: the log carries damaged lines, and ground truth
// counts them.
func TestCorruptionPresent(t *testing.T) {
	out := gen(t, logrec.Thunderbird)
	if out.Truth.CorruptedLines == 0 {
		t.Error("no corruption injected")
	}
	// Most damage (mid-body truncation) is undetectable at parse time —
	// exactly the paper's point. At a higher corruption rate, some
	// damage (scrambled timestamps) must surface as parse-detected
	// corruption.
	noisy, err := Generate(Config{System: logrec.Liberty, Scale: 0.0001, Seed: 8, CorruptionProb: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	parsedCorrupt := 0
	for _, r := range noisy.Records {
		if r.Corrupted {
			parsedCorrupt++
		}
	}
	if parsedCorrupt == 0 {
		t.Error("no parsed record marked corrupted at 2% damage")
	}
	if parsedCorrupt >= noisy.Truth.CorruptedLines {
		t.Errorf("parse-detected %d >= injected %d; some damage must be silent", parsedCorrupt, noisy.Truth.CorruptedLines)
	}
}

// TestTransportLoss: UDP systems drop messages; turning the model off
// stops the drops.
func TestTransportLoss(t *testing.T) {
	out := gen(t, logrec.Spirit)
	if out.Truth.Dropped == 0 {
		t.Error("Spirit's UDP path should lose messages")
	}
	quiet, err := Generate(Config{System: logrec.Liberty, Scale: 0.0001, Seed: 3, DisableTransportLoss: true})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Truth.Dropped != 0 {
		t.Error("DisableTransportLoss must stop drops")
	}
}

// TestGroundTruthConsistency: every truth entry points at a line whose
// uncorrupted form matches its category, and incident ids exist.
func TestGroundTruthConsistency(t *testing.T) {
	out := gen(t, logrec.Liberty)
	incidents := map[int64]bool{}
	for _, inc := range out.Truth.Incidents {
		incidents[inc.ID] = true
	}
	checked := 0
	for seq, at := range out.Truth.AlertAt {
		if int(seq) >= len(out.Records) {
			t.Fatalf("truth seq %d out of range", seq)
		}
		if !incidents[at.Incident] {
			t.Fatalf("truth references unknown incident %d", at.Incident)
		}
		if _, ok := catalog.Lookup(logrec.Liberty, at.Category); !ok {
			t.Fatalf("truth references unknown category %s", at.Category)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no alert truth recorded")
	}
}

// TestTruthMatchesTagging: on uncorrupted records, the expert tagger and
// the ground truth agree about which records are alerts.
func TestTruthMatchesTagging(t *testing.T) {
	out := gen(t, logrec.Liberty)
	tg := tag.NewTagger(logrec.Liberty)
	mismatch := 0
	for _, r := range out.Records {
		if r.Corrupted {
			continue
		}
		_, truthSaysAlert := out.Truth.AlertAt[r.Seq]
		_, taggerSaysAlert := tg.Tag(&r)
		if truthSaysAlert != taggerSaysAlert {
			mismatch++
		}
	}
	// Corruption detection is not perfect (an overwritten line can stay
	// parseable), so allow a tiny residue.
	if mismatch > len(out.Truth.AlertAt)/50+3 {
		t.Errorf("%d truth/tagger mismatches", mismatch)
	}
}

// TestSn325HiddenIncident: the planted coincident failure (Section 3.3.2)
// exists, overlaps the sn373 storm, and the simultaneous filter removes
// it while serial keeps it.
func TestSn325HiddenIncident(t *testing.T) {
	out := gen(t, logrec.Spirit)
	var sn325 *Incident
	for i := range out.Truth.Incidents {
		inc := &out.Truth.Incidents[i]
		if len(inc.Nodes) == 1 && inc.Nodes[0] == "sn325" && inc.Category == "EXT_CCISS" {
			sn325 = inc
			break
		}
	}
	if sn325 == nil {
		t.Fatal("sn325 coincident incident missing")
	}
	alerts := tagged(t, out)
	incidentOf := func(a tag.Alert) (int64, bool) {
		at, ok := out.Truth.AlertAt[a.Record.Seq]
		if !ok {
			return 0, false
		}
		return at.Incident, true
	}
	countSurvivors := func(alg filter.Algorithm) int {
		n := 0
		for _, a := range alg.Filter(alerts) {
			if id, ok := incidentOf(a); ok && id == sn325.ID {
				n++
			}
		}
		return n
	}
	if n := countSurvivors(filter.Simultaneous{}); n != 0 {
		t.Errorf("simultaneous kept %d sn325 alerts, want 0 (erroneously removed, per the paper)", n)
	}
	if n := countSurvivors(filter.Serial{}); n == 0 {
		t.Error("serial should keep sn325's first alert")
	}
}

// TestBGLMicrosecondTimestamps: BG/L records carry sub-second precision;
// syslog systems do not.
func TestBGLMicrosecondTimestamps(t *testing.T) {
	bgl := gen(t, logrec.BlueGeneL)
	subSecond := 0
	for _, r := range bgl.Records {
		if r.Time.Nanosecond() != 0 {
			subSecond++
		}
	}
	if subSecond == 0 {
		t.Error("BG/L timestamps should carry microseconds")
	}
	lib := gen(t, logrec.Liberty)
	for _, r := range lib.Records {
		if !r.Corrupted && r.Time.Nanosecond() != 0 {
			t.Error("syslog timestamps must have one-second granularity")
			break
		}
	}
}

// TestRedStormDualPath: Red Storm mixes syslog (severities) and SMW event
// lines (no severities).
func TestRedStormDualPath(t *testing.T) {
	out := gen(t, logrec.RedStorm)
	withSev, without := 0, 0
	for _, r := range out.Records {
		if r.Severity.IsSyslog() {
			withSev++
		} else if !r.Corrupted {
			without++
		}
	}
	if withSev == 0 || without == 0 {
		t.Errorf("dual path missing: %d with severity, %d without", withSev, without)
	}
	// The event path is the bigger stream (193M vs 25M in the paper).
	if without < withSev {
		t.Errorf("event path (%d) should outnumber syslog path (%d)", without, withSev)
	}
}

// TestBGLSeverityRatio: the Table 5 structure — FATAL non-alerts outnumber
// FATAL alerts by ~1.46:1, yielding the 59.34% baseline FP rate.
func TestBGLSeverityRatio(t *testing.T) {
	out := gen(t, logrec.BlueGeneL)
	tg := tag.NewTagger(logrec.BlueGeneL)
	fatalAlert, fatalAll := 0, 0
	for _, r := range out.Records {
		if r.Severity != logrec.SevFatal && r.Severity != logrec.SevFailure {
			continue
		}
		fatalAll++
		if _, ok := tg.Tag(&r); ok {
			fatalAlert++
		}
	}
	fp := float64(fatalAll-fatalAlert) / float64(fatalAll)
	if fp < 0.55 || fp < 0 || fp > 0.65 {
		t.Errorf("FATAL/FAILURE baseline FP rate = %.4f, want ~0.5934", fp)
	}
}

// TestMASNORMInDowntime: every MASNORM incident lands inside a scheduled
// downtime window (the opcontext disambiguation setup).
func TestMASNORMInDowntime(t *testing.T) {
	out := gen(t, logrec.BlueGeneL)
	for _, inc := range out.Truth.Incidents {
		if inc.Category != "MASNORM" {
			continue
		}
		if st := out.Timeline.StateAt(inc.Time); st.String() != "scheduled-downtime" {
			t.Errorf("MASNORM incident at %v in state %v", inc.Time, st)
		}
	}
}

// TestTotalBytes agrees with the rendered text.
func TestTotalBytes(t *testing.T) {
	out := gen(t, logrec.Liberty)
	var want int64
	for _, l := range out.Lines {
		want += int64(len(l)) + 1
	}
	if got := out.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
}

// TestScaleControlsVolume: doubling the scale roughly doubles background
// volume.
func TestScaleControlsVolume(t *testing.T) {
	small, err := Generate(Config{System: logrec.Liberty, Scale: 0.0001, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(Config{System: logrec.Liberty, Scale: 0.0002, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(big.Lines)) / float64(len(small.Lines))
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("2x scale volume ratio = %.2f, want ~2 (alerts are constant, background dominates)", ratio)
	}
}

// TestIncidentIDsDense: the merge renumbering yields densely numbered,
// unique incident IDs — every alert line's truth points at a real
// incident.
func TestIncidentIDsDense(t *testing.T) {
	out, err := Generate(Config{System: logrec.Liberty, Scale: 0.0002, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool, len(out.Truth.Incidents))
	for _, inc := range out.Truth.Incidents {
		if inc.ID < 1 || inc.ID > int64(len(out.Truth.Incidents)) {
			t.Fatalf("incident ID %d outside [1, %d]", inc.ID, len(out.Truth.Incidents))
		}
		if seen[inc.ID] {
			t.Fatalf("duplicate incident ID %d", inc.ID)
		}
		seen[inc.ID] = true
	}
	for seq, tr := range out.Truth.AlertAt {
		if !seen[tr.Incident] {
			t.Fatalf("line %d: alert truth references unknown incident %d", seq, tr.Incident)
		}
	}
}
