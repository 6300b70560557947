package jobs

import (
	"math/rand"
	"testing"
	"time"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/cluster"
	"whatsupersay/internal/logrec"
	"whatsupersay/internal/tag"
)

var (
	wStart = time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	wEnd   = wStart.AddDate(0, 0, 30)
)

func libertyMachine(t *testing.T) *cluster.Machine {
	t.Helper()
	m, err := cluster.New(logrec.Liberty)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWorkloadGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := libertyMachine(t)
	jobsList := DefaultWorkload().Generate(rng, m, wStart, wEnd)
	if len(jobsList) < 200 || len(jobsList) > 500 {
		t.Fatalf("jobs = %d, want ~360 (0.5/hour over 30 days)", len(jobsList))
	}
	for _, j := range jobsList {
		if j.Start.Before(wStart) || j.End.After(wEnd) || !j.Start.Before(j.End) {
			t.Fatalf("job %d outside window: %v-%v", j.ID, j.Start, j.End)
		}
		if len(j.Nodes) == 0 {
			t.Fatalf("job %d has no allocation", j.ID)
		}
		for _, n := range j.Nodes {
			node, ok := m.Node(n)
			if !ok || node.Role != cluster.RoleCompute {
				t.Fatalf("job %d allocated non-compute node %q", j.ID, n)
			}
		}
		if j.Killed() {
			t.Fatal("fresh jobs must not be killed")
		}
	}
	// Mean allocation ~4 nodes.
	total := 0
	for _, j := range jobsList {
		total += len(j.Nodes)
	}
	if mean := float64(total) / float64(len(jobsList)); mean < 2.5 || mean > 6 {
		t.Errorf("mean nodes = %.1f, want ~4", mean)
	}
}

func TestJobPredicates(t *testing.T) {
	j := Job{Start: wStart, End: wStart.Add(10 * time.Hour), Nodes: []string{"ln1", "ln2"}}
	if !j.RunningAt(wStart.Add(time.Hour)) {
		t.Error("job should be running mid-execution")
	}
	if j.RunningAt(wStart.Add(-time.Minute)) || j.RunningAt(wStart.Add(10*time.Hour)) {
		t.Error("job running outside its span")
	}
	if !j.Uses("ln2") || j.Uses("ln3") {
		t.Error("Uses wrong")
	}
	j.KilledAt = wStart.Add(5 * time.Hour)
	if j.RunningAt(wStart.Add(6 * time.Hour)) {
		t.Error("killed job must not be running after its kill")
	}
	if !j.RunningAt(wStart.Add(4 * time.Hour)) {
		t.Error("killed job was running before its kill")
	}
}

func TestApplyFailures(t *testing.T) {
	jobsList := []Job{
		{ID: 1, Start: wStart, End: wStart.Add(10 * time.Hour), Nodes: []string{"ln1", "ln2"}},
		{ID: 2, Start: wStart, End: wStart.Add(10 * time.Hour), Nodes: []string{"ln3"}},
		{ID: 3, Start: wStart.Add(20 * time.Hour), End: wStart.Add(30 * time.Hour), Nodes: []string{"ln1"}},
	}
	failures := []Failure{
		{Time: wStart.Add(4 * time.Hour), Node: "ln1", Incident: 7},
	}
	imp := ApplyFailures(jobsList, failures, 0)
	if imp.JobsKilled != 1 {
		t.Fatalf("killed = %d, want 1 (only job 1 uses ln1 at t+4h)", imp.JobsKilled)
	}
	if !jobsList[0].Killed() || jobsList[0].KilledBy != 7 {
		t.Error("job 1 not marked killed by incident 7")
	}
	if jobsList[1].Killed() || jobsList[2].Killed() {
		t.Error("unaffected jobs marked killed")
	}
	// Lost work: 4 hours x 2 nodes, no checkpointing.
	if imp.NodeHoursLost != 8 {
		t.Errorf("node-hours lost = %v, want 8", imp.NodeHoursLost)
	}
	if imp.ByIncident[7] != 1 {
		t.Errorf("by-incident = %v", imp.ByIncident)
	}
}

func TestApplyFailuresEarliestWins(t *testing.T) {
	jobsList := []Job{
		{ID: 1, Start: wStart, End: wStart.Add(10 * time.Hour), Nodes: []string{"ln1"}},
	}
	failures := []Failure{
		{Time: wStart.Add(6 * time.Hour), Node: "ln1", Incident: 2},
		{Time: wStart.Add(2 * time.Hour), Node: "ln1", Incident: 1},
	}
	imp := ApplyFailures(jobsList, failures, 0)
	if imp.JobsKilled != 1 || jobsList[0].KilledBy != 1 {
		t.Errorf("job must die to its earliest failure: %+v", jobsList[0])
	}
}

func TestCheckpointingReducesLoss(t *testing.T) {
	mk := func() []Job {
		return []Job{{ID: 1, Start: wStart, End: wStart.Add(100 * time.Hour), Nodes: []string{"ln1"}}}
	}
	failures := []Failure{{Time: wStart.Add(10*time.Hour + 30*time.Minute), Node: "ln1", Incident: 1}}
	noCkpt := ApplyFailures(mk(), failures, 0)
	hourly := ApplyFailures(mk(), failures, time.Hour)
	if noCkpt.NodeHoursLost != 10.5 {
		t.Errorf("uncheckpointed loss = %v, want 10.5", noCkpt.NodeHoursLost)
	}
	if hourly.NodeHoursLost != 0.5 {
		t.Errorf("hourly-checkpoint loss = %v, want 0.5 (progress since last checkpoint)", hourly.NodeHoursLost)
	}
}

func TestEstimateKilledJobs(t *testing.T) {
	c, ok := catalog.Lookup(logrec.Liberty, "PBS_CHK")
	if !ok {
		t.Fatal("PBS_CHK missing")
	}
	other, _ := catalog.Lookup(logrec.Liberty, "PBS_CON")
	var alerts []tag.Alert
	add := func(node string, at time.Time, cat *catalog.Category) {
		alerts = append(alerts, tag.Alert{
			Record:   logrec.Record{Time: at, Source: node},
			Category: cat,
		})
	}
	// Job A on ln1: 5 task_checks over 12 seconds.
	for i := 0; i < 5; i++ {
		add("ln1", wStart.Add(time.Duration(i*3)*time.Second), c)
	}
	// Job B on ln1: another cluster 2 hours later.
	for i := 0; i < 3; i++ {
		add("ln1", wStart.Add(2*time.Hour+time.Duration(i*3)*time.Second), c)
	}
	// Job C on ln2, interleaved in time with job A.
	for i := 0; i < 4; i++ {
		add("ln2", wStart.Add(time.Duration(1+i*3)*time.Second), c)
	}
	// Noise from another category must not count.
	add("ln1", wStart.Add(time.Minute), other)

	if got := EstimateKilledJobs(alerts, "PBS_CHK", time.Hour); got != 3 {
		t.Errorf("estimated killed jobs = %d, want 3", got)
	}
	if got := EstimateKilledJobs(nil, "PBS_CHK", time.Hour); got != 0 {
		t.Error("empty input")
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	m := libertyMachine(t)
	run := func() []Job {
		return DefaultWorkload().Generate(rand.New(rand.NewSource(9)), m, wStart, wEnd)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic job count")
	}
	for i := range a {
		if !a[i].Start.Equal(b[i].Start) || len(a[i].Nodes) != len(b[i].Nodes) {
			t.Fatal("nondeterministic schedule")
		}
	}
}

func TestWorkloadEmpty(t *testing.T) {
	m := libertyMachine(t)
	if jl := (Workload{}).Generate(rand.New(rand.NewSource(1)), m, wStart, wEnd); jl != nil {
		t.Error("zero rate must produce no jobs")
	}
}
