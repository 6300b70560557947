// Package jobs models the batch workload running on the machines and
// quantifies failure impact in the units the paper says matter: "We
// recommend calculating RAS metrics based on quantities of direct
// interest, such as the amount of useful work lost due to failures"
// (Section 5), and "We estimate that this bug killed as many as 1336
// jobs before it was tracked down and fixed" (Section 3.3.1).
//
// Three pieces:
//
//   - a workload generator (Poisson arrivals, geometric node counts,
//     exponential durations) producing a job schedule on a machine;
//   - a failure overlay that kills the jobs running on a failed node and
//     accounts lost node-hours, optionally under periodic checkpointing
//     (the cooperative-checkpointing line of work the paper cites);
//   - a killed-job estimator that works from the alert stream alone —
//     the procedure behind the paper's 1,336 figure — so the estimate
//     can be validated against the generator's ground truth.
package jobs

import (
	"math/rand"
	"sort"
	"time"

	"whatsupersay/internal/cluster"
	"whatsupersay/internal/tag"
)

// Job is one batch job.
type Job struct {
	// ID is the job's ordinal.
	ID int
	// Start and End delimit the planned execution.
	Start, End time.Time
	// Nodes is the allocation.
	Nodes []string
	// KilledAt is when a failure terminated the job early (zero when the
	// job completed).
	KilledAt time.Time
	// KilledBy is the incident that killed it (0 when completed).
	KilledBy int64
}

// Killed reports whether the job was terminated by a failure.
func (j Job) Killed() bool { return !j.KilledAt.IsZero() }

// RunningAt reports whether the job occupies nodes at t (and has not been
// killed before t).
func (j Job) RunningAt(t time.Time) bool {
	if t.Before(j.Start) || !t.Before(j.End) {
		return false
	}
	return !j.Killed() || t.Before(j.KilledAt)
}

// Uses reports whether the job's allocation includes the node.
func (j Job) Uses(node string) bool {
	for _, n := range j.Nodes {
		if n == node {
			return true
		}
	}
	return false
}

// Workload parameterizes the job generator.
type Workload struct {
	// ArrivalRatePerHour is the job arrival rate.
	ArrivalRatePerHour float64
	// MeanDuration is the mean job runtime (exponential).
	MeanDuration time.Duration
	// MeanNodes is the mean allocation size (geometric, minimum 1).
	MeanNodes float64
}

// DefaultWorkload is a small-cluster batch mix: a job every couple of
// hours, few-node allocations, multi-hour runtimes.
func DefaultWorkload() Workload {
	return Workload{
		ArrivalRatePerHour: 0.5,
		MeanDuration:       6 * time.Hour,
		MeanNodes:          4,
	}
}

// Generate produces a job schedule on the machine over [start, end). Job
// allocations draw contiguous compute-node ranges, the usual scheduler
// behavior (and what makes the SMP-clock bug spatially correlated).
func (w Workload) Generate(rng *rand.Rand, m *cluster.Machine, start, end time.Time) []Job {
	compute := m.NodesByRole(cluster.RoleCompute)
	if len(compute) == 0 || w.ArrivalRatePerHour <= 0 {
		return nil
	}
	var out []Job
	t := start
	id := 0
	meanGap := time.Duration(float64(time.Hour) / w.ArrivalRatePerHour)
	for {
		t = t.Add(time.Duration(rng.ExpFloat64() * float64(meanGap)))
		if !t.Before(end) {
			return out
		}
		id++
		dur := time.Duration(rng.ExpFloat64() * float64(w.MeanDuration))
		if dur < time.Minute {
			dur = time.Minute
		}
		jobEnd := t.Add(dur)
		if jobEnd.After(end) {
			jobEnd = end
		}
		k := 1
		for rng.Float64() > 1/w.MeanNodes && k < len(compute) {
			k++
		}
		base := rng.Intn(len(compute) - k + 1)
		nodes := make([]string, 0, k)
		for i := 0; i < k; i++ {
			nodes = append(nodes, compute[base+i].Name)
		}
		out = append(out, Job{ID: id, Start: t, End: jobEnd, Nodes: nodes})
	}
}

// Failure is one job-fatal event on a node.
type Failure struct {
	Time     time.Time
	Node     string
	Incident int64
}

// Impact is the failure-overlay accounting.
type Impact struct {
	// JobsKilled counts jobs terminated early.
	JobsKilled int
	// NodeHoursLost is work lost: for each killed job, the node-hours
	// from the last checkpoint (or start) to the kill, plus nothing for
	// the remainder (which was never computed). This is the "useful work
	// lost due to failures" metric.
	NodeHoursLost float64
	// ByIncident maps each incident to the jobs it killed.
	ByIncident map[int64]int
}

// ApplyFailures kills, for every failure, the jobs running on the failed
// node at that time (a job dies at most once, to its earliest failure).
// checkpointInterval > 0 models periodic checkpointing: lost work is only
// the progress since the last checkpoint. The jobs slice is updated in
// place.
func ApplyFailures(jobList []Job, failures []Failure, checkpointInterval time.Duration) Impact {
	sorted := make([]Failure, len(failures))
	copy(sorted, failures)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time.Before(sorted[j].Time) })

	imp := Impact{ByIncident: make(map[int64]int)}
	for i := range jobList {
		j := &jobList[i]
		for _, f := range sorted {
			if !j.RunningAt(f.Time) || !j.Uses(f.Node) {
				continue
			}
			j.KilledAt = f.Time
			j.KilledBy = f.Incident
			imp.JobsKilled++
			imp.ByIncident[f.Incident]++
			imp.NodeHoursLost += lostWork(*j, f.Time, checkpointInterval)
			break
		}
	}
	return imp
}

// lostWork is the node-hours of progress destroyed by a kill at t.
func lostWork(j Job, t time.Time, checkpointInterval time.Duration) float64 {
	progress := t.Sub(j.Start)
	if progress < 0 {
		return 0
	}
	if checkpointInterval > 0 {
		// Progress since the last completed checkpoint.
		progress = progress % checkpointInterval
	}
	return progress.Hours() * float64(len(j.Nodes))
}

// EstimateKilledJobs reproduces the paper's Section 3.3.1 estimate from
// the alert stream alone: each per-node cluster of job-fatal alerts
// (task_check repeats from one mom) is one killed job. window is the
// cluster-splitting gap; the paper's PBS bug repeated the message for
// minutes per job, so an hour-scale window separates jobs cleanly.
func EstimateKilledJobs(alerts []tag.Alert, category string, window time.Duration) int {
	type nodeState struct{ last time.Time }
	states := make(map[string]*nodeState)
	estimate := 0
	for _, a := range alerts {
		if a.Category.Name != category {
			continue
		}
		st := states[a.Record.Source]
		if st == nil {
			st = &nodeState{}
			states[a.Record.Source] = st
		}
		if st.last.IsZero() || a.Record.Time.Sub(st.last) >= window {
			estimate++
		}
		st.last = a.Record.Time
	}
	return estimate
}
