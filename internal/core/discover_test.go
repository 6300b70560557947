package core

import (
	"slices"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/simulate"
)

// TestDiscoverSpatialCorrelation reproduces the Section 4 discovery: on
// Thunderbird, the CPU clock bug is spatially correlated across nodes
// while ECC is not — "We investigated this message only after noticing
// that its occurrence was spatially correlated across nodes."
func TestDiscoverSpatialCorrelation(t *testing.T) {
	tb := study(t, logrec.Thunderbird)
	scores := DiscoverSpatialCorrelation(tb, 30*time.Second, 20)
	if len(scores) < 5 {
		t.Fatalf("scored %d categories", len(scores))
	}
	idx := make(map[string]float64)
	for _, sc := range scores {
		idx[sc.Category] = sc.Score.Index()
	}
	if idx["CPU"] < 0.8 {
		t.Errorf("CPU spatial index = %.2f, want near 1 (job-coupled bug)", idx["CPU"])
	}
	if idx["ECC"] > 0.05 {
		t.Errorf("ECC spatial index = %.2f, want near 0 (independent)", idx["ECC"])
	}
	if idx["CPU"] <= idx["ECC"] {
		t.Error("CPU must rank above ECC")
	}
	// Sorted descending by index.
	for i := 1; i < len(scores); i++ {
		if scores[i].Score.Index() > scores[i-1].Score.Index() {
			t.Fatal("scores not sorted")
		}
	}
}

// TestBurstinessByCategory: ECC is Poisson-like (Fano ~ 1); the VAPI
// storms are heavily overdispersed.
func TestBurstinessByCategory(t *testing.T) {
	tb := study(t, logrec.Thunderbird)
	fano := BurstinessByCategory(tb, 20)
	if f := fano["ECC"]; f < 0.5 || f > 2 {
		t.Errorf("ECC Fano = %.2f, want ~1", f)
	}
	if f := fano["VAPI"]; f < 5 {
		t.Errorf("VAPI Fano = %.2f, want >> 1 (storms)", f)
	}
}

func TestRASReport(t *testing.T) {
	lib := study(t, logrec.Liberty)
	rep := RAS(lib)
	if rep.FilteredAlerts != len(lib.Filtered) {
		t.Error("filtered count mismatch")
	}
	if rep.LogMTBF <= 0 {
		t.Error("log MTBF must be positive")
	}
	// Generated timelines carry scheduled maintenance plus a few
	// unscheduled outages; availability is high but not perfect, and
	// lost node-hours are non-zero — numbers decoupled from alert
	// volume, as Section 5 recommends.
	if a := rep.Metrics.Availability(); a < 0.95 || a >= 1 {
		t.Errorf("availability = %v, want in [0.95, 1)", a)
	}
	if rep.Metrics.Scheduled <= 0 {
		t.Error("scheduled downtime missing from timeline")
	}
	if rep.Metrics.Unscheduled <= 0 || rep.Metrics.NodeHoursLost <= 0 {
		t.Error("unscheduled outages missing from timeline")
	}
}

func TestJobImpact(t *testing.T) {
	lib, err := New(simulate.Config{System: logrec.Liberty, Scale: testScale, AlertScale: 1, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	imp := JobImpact(lib, "PBS_CHK", 3, time.Hour)
	if imp.Jobs < 1000 {
		t.Fatalf("workload too small: %d jobs", imp.Jobs)
	}
	// The alert-only estimate approximates the 920 ground-truth
	// incidents (the paper's estimation procedure).
	incidents := 0
	for _, inc := range lib.Source.Truth.Incidents {
		if inc.Category == "PBS_CHK" {
			incidents++
		}
	}
	if imp.EstimatedKilled < incidents*9/10 || imp.EstimatedKilled > incidents*11/10 {
		t.Errorf("estimate = %d, ground truth incidents = %d", imp.EstimatedKilled, incidents)
	}
	if imp.GroundTruthKilled == 0 {
		t.Error("overlay killed no jobs despite 920 failures in one quarter")
	}
	// Checkpointing strictly reduces lost work.
	if imp.LostNodeHoursCheckpointed >= imp.LostNodeHours {
		t.Errorf("checkpointing did not reduce loss: %.1f vs %.1f",
			imp.LostNodeHoursCheckpointed, imp.LostNodeHours)
	}
}

// TestThresholdSweepKnee validates the paper's T = 5 s choice: the
// redundancy knee sits exactly there on Spirit. Below it, redundant
// alerts survive in bulk; above it, survivors barely change while missed
// incidents climb — a pure cost with no benefit.
func TestThresholdSweepKnee(t *testing.T) {
	spirit := study(t, logrec.Spirit)
	rows := ThresholdSweep(spirit, DefaultSweepThresholds())
	byT := map[time.Duration]SweepRow{}
	for _, r := range rows {
		byT[r.T] = r
	}
	if byT[time.Second].AlertsPerFailure < 2 {
		t.Errorf("T=1s alerts/failure = %.2f, want >> 1 (redundancy survives)", byT[time.Second].AlertsPerFailure)
	}
	if apf := byT[5*time.Second].AlertsPerFailure; apf > 1.01 {
		t.Errorf("T=5s alerts/failure = %.3f, want ~1 (the paper's operating point)", apf)
	}
	// Kept is non-increasing in T; Missed non-decreasing.
	for i := 1; i < len(rows); i++ {
		if rows[i].Kept > rows[i-1].Kept {
			t.Errorf("Kept not monotone: %v", rows)
			break
		}
		if rows[i].Missed < rows[i-1].Missed {
			t.Errorf("Missed not monotone: %v", rows)
			break
		}
	}
	// Widening past 5s buys almost nothing but loses incidents.
	if byT[time.Minute].Missed <= byT[5*time.Second].Missed {
		t.Error("larger T should miss more incidents")
	}
}

func TestJobImpactNoGroundTruth(t *testing.T) {
	src := study(t, logrec.Liberty)
	s := FromRecords(logrec.Liberty, slices.Clone(src.Records))
	imp := JobImpact(s, "PBS_CHK", 1, time.Hour)
	if imp.Jobs != 0 || imp.GroundTruthKilled != 0 {
		t.Error("ingested studies have no ground truth to overlay")
	}
}
