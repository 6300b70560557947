package core

import (
	"slices"
	"strings"
	"testing"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/mining"
)

// miningConfigForTest keeps the bounded-mining test fast.
func miningConfigForTest() mining.Config {
	return mining.Config{Support: 5}
}

// TestTableRenderers exercises the text renderers end to end; the data
// functions behind them are covered by the shape tests.
func TestTableRenderers(t *testing.T) {
	studies := allStudies(t)
	tbl2, err := Table2(studies)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl2.String(), "Rate (B/s)") {
		t.Error("table 2 header missing")
	}
	if !strings.Contains(Table3(studies).String(), "Indeterminate") {
		t.Error("table 3 rows missing")
	}
	for _, s := range studies {
		out := Table4(s).String()
		if !strings.Contains(out, "Filt(paper)") {
			t.Fatalf("%v table 4 header missing", s.System)
		}
	}
	if !strings.Contains(Table5(study(t, logrec.BlueGeneL)).String(), "FATAL") {
		t.Error("table 5 missing FATAL row")
	}
	if !strings.Contains(Table6(study(t, logrec.RedStorm)).String(), "CRIT") {
		t.Error("table 6 missing CRIT row")
	}
}

func TestRenderFigure1WithoutTimeline(t *testing.T) {
	// A study built from ingested records has no timeline; the renderer
	// must still print the state machine.
	src := study(t, logrec.Liberty)
	s := FromRecords(logrec.Liberty, slices.Clone(src.Records[:1000]))
	var b strings.Builder
	RenderFigure1(&b, s)
	out := b.String()
	if !strings.Contains(out, "production-uptime") {
		t.Errorf("state machine missing:\n%s", out)
	}
	if strings.Contains(out, "transition log") {
		t.Error("timeline section printed without a timeline")
	}
	// And with nil study entirely.
	b.Reset()
	RenderFigure1(&b, nil)
	if !strings.Contains(b.String(), "legal transitions") {
		t.Error("nil-study render failed")
	}
}

func TestMineTemplatesBounded(t *testing.T) {
	lib := study(t, logrec.Liberty)
	rep := MineTemplates(lib, miningConfigForTest(), 500)
	if rep.Messages != 500 {
		t.Errorf("bounded mining processed %d messages, want 500", rep.Messages)
	}
	if len(rep.Templates) == 0 {
		t.Error("no templates")
	}
	if rep.AlertPurity <= 0 || rep.AlertPurity > 1 {
		t.Errorf("purity = %v", rep.AlertPurity)
	}
}
