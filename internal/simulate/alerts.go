package simulate

import (
	"time"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/cluster"
	"whatsupersay/internal/logrec"
)

// smallRaw is the raw-count threshold below which a category is generated
// at its exact paper count regardless of Scale: a few thousand messages
// cost nothing, and the small categories carry the burst structure that
// the filtering experiments (Figure 4, Section 3.3.2) depend on.
const smallRaw = 10000

// alertScale returns the effective alert-volume scale.
func (g *generator) alertScale() float64 {
	if g.cfg.AlertScale > 0 {
		return g.cfg.AlertScale
	}
	return g.cfg.Scale
}

// scaledRaw converts a category's paper raw count to this run's target
// message count. Incident counts (Filtered) are never scaled.
func (g *generator) scaledRaw(c *catalog.Category) int {
	if c.Raw <= smallRaw {
		return c.Raw
	}
	n := int(float64(c.Raw)*g.alertScale() + 0.5)
	if n < c.Filtered {
		n = c.Filtered
	}
	return n
}

// tuning holds the per-category generation knobs.
type tuning struct {
	// role selects the reporting node population.
	role cluster.Role
	// gapMean is the mean intra-burst message spacing. It must stay
	// safely under the 5 s filter threshold so one incident coalesces to
	// one filtered alert.
	gapMean time.Duration
	// nodes is how many distinct nodes a burst rotates across (the
	// paper's "k nodes report the same alert in a round-robin fashion").
	nodes int
	// clusterProb is the chance an incident root attaches to a failure
	// episode instead of arriving independently (drives the correlated
	// interarrivals of Figure 6(a)).
	clusterProb float64
}

// defaultTuning is the baseline: single compute node, ~1.2 s spacing.
func defaultTuning() tuning {
	return tuning{role: cluster.RoleCompute, gapMean: 1200 * time.Millisecond, nodes: 1}
}

// maxGap caps intra-burst gaps below the 5 s filter threshold with margin
// for one-second timestamp truncation: a 3.9 s real gap can round to at
// most 4 whole seconds on a syslog path, staying strictly under T = 5 s so
// one incident never splits into two filtered alerts.
const maxGap = 3900 * time.Millisecond

// burstGap draws one intra-burst gap.
func (g *generator) burstGap(mean time.Duration) time.Duration {
	gap := time.Duration(g.rng.ExpFloat64() * float64(mean))
	if gap > maxGap {
		gap = maxGap
	}
	if gap < time.Millisecond {
		gap = time.Millisecond
	}
	return gap
}

// emitBurst emits one incident's worth of redundant alerts starting at
// root, rotating across the given nodes, and returns the time of the last
// message. Messages never pass the window end.
func (g *generator) emitBurst(c *catalog.Category, id int64, root time.Time, nodes []string, size int, gapMean time.Duration) time.Time {
	t := root
	last := root
	for i := 0; i < size; i++ {
		if !t.Before(g.end) {
			break
		}
		g.emitAlert(t, nodes[i%len(nodes)], c, id)
		last = t
		t = t.Add(g.burstGap(gapMean))
	}
	return last
}

// burstNodes picks the node set for one incident.
func (g *generator) burstNodes(tn tuning) []string {
	k := tn.nodes
	if k < 1 {
		k = 1
	}
	out := make([]string, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, g.m.RandomNodeByRole(g.rng, tn.role).Name)
	}
	return out
}

// incidentRoot draws an incident root time: either attached to a failure
// episode (temporal clustering) or uniform over the window.
func (g *generator) incidentRoot(tn tuning, episodes []time.Time) time.Time {
	if tn.clusterProb > 0 && len(episodes) > 0 && g.rng.Float64() < tn.clusterProb {
		ep := episodes[g.rng.Intn(len(episodes))]
		lag := time.Duration(g.rng.ExpFloat64() * float64(2*time.Minute))
		t := ep.Add(lag)
		if t.Before(g.end) {
			return t
		}
	}
	return g.uniformTime()
}

// burstSizes splits a total message budget across n incidents, one share
// per incident with ±50% jitter, always at least 1.
func (g *generator) burstSizes(total, n int) []int {
	if n <= 0 {
		return nil
	}
	sizes := make([]int, n)
	remaining := total
	for i := range sizes {
		share := remaining / (n - i)
		jitter := 1.0
		if share > 2 {
			jitter = 0.5 + g.rng.Float64()
		}
		s := int(float64(share) * jitter)
		if s < 1 {
			s = 1
		}
		if s > remaining-(n-i-1) {
			s = remaining - (n - i - 1)
		}
		if s < 1 {
			s = 1
		}
		sizes[i] = s
		remaining -= s
	}
	return sizes
}

// generateCategory runs the default per-category generation: Filtered
// incidents, scaledRaw messages, burst sizes jittered around the mean.
func (g *generator) generateCategory(c *catalog.Category, tn tuning, episodes []time.Time) {
	total := g.scaledRaw(c)
	sizes := g.burstSizes(total, c.Filtered)
	for _, size := range sizes {
		root := g.incidentRoot(tn, episodes)
		nodes := g.burstNodes(tn)
		id := g.newIncident(c.Name, root, nodes...)
		g.emitBurst(c, id, root, nodes, size, tn.gapMean)
	}
}

// episodeTimes draws the shared failure-episode times used to correlate
// incident roots across categories.
func (g *generator) episodeTimes(n int) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		out[i] = g.uniformTime()
	}
	return out
}

// mustCat looks up a category that is guaranteed to exist in the catalog.
func mustCat(sys logrec.System, name string) *catalog.Category {
	c, ok := catalog.Lookup(sys, name)
	if !ok {
		panic("simulate: missing catalog category " + name)
	}
	return c
}

// alertTasks builds the per-system alert task list. Each task is one
// category — or one correlated category group, which must share an RNG
// stream to keep its cross-category structure — and runs on its own
// derived seed, so the task set (and each task's output) depends only
// on the config.
func (g *generator) alertTasks() []task {
	switch g.cfg.System {
	case logrec.BlueGeneL:
		return g.bglAlertTasks()
	case logrec.Thunderbird:
		return g.thunderbirdAlertTasks()
	case logrec.RedStorm:
		return g.redStormAlertTasks()
	case logrec.Spirit:
		return g.spiritAlertTasks()
	case logrec.Liberty:
		return g.libertyAlertTasks()
	}
	return nil
}

// catTask wraps one category generation closure as a labeled task.
func catTask(c *catalog.Category, run func(s *generator)) task {
	return task{label: "alert/" + c.Name, run: run}
}

// bglAlertTasks generates the 41 BG/L categories. Incident roots cluster
// around shared failure episodes, which is what makes the *filtered* BG/L
// interarrival distribution bimodal (Figure 6(a)): the first mode is
// inter-category correlation inside an episode, the second the spacing
// between episodes. The episode times are drawn up front on their own
// derived RNG and shared read-only by every category task. MASNORM
// ("ciodb exited normally") incidents are placed inside
// scheduled-downtime windows — the operational-context disambiguation
// example of Section 3.2.1.
func (g *generator) bglAlertTasks() []task {
	episodes := g.fork("episodes").episodeTimes(140)
	var tasks []task
	for _, c := range catalog.BySystem(logrec.BlueGeneL) {
		tn := defaultTuning()
		tn.clusterProb = 0.65
		switch c.Facility {
		case "KERNEL", "APP":
			tn.role = cluster.RoleCompute
		case "MONITOR", "LINKCARD", "DISCOVERY":
			tn.role = cluster.RoleService
		}
		switch c.Name {
		case "KERNDTLB", "KERNSTOR":
			// Partition-wide hardware interrupts: many chips of the same
			// job report in a tight round-robin.
			tn.nodes = 8
			tn.gapMean = 400 * time.Millisecond
		case "KERNMNTF":
			tn.role = cluster.RoleIO
		case "MASNORM":
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateMASNORM(c) }))
			continue
		case "MASABNORM":
			tn.role = cluster.RoleService
		}
		if c.Facility == "BGLMASTER" {
			tn.role = cluster.RoleService
		}
		tasks = append(tasks, catTask(c, func(s *generator) { s.generateCategory(c, tn, episodes) }))
	}
	return tasks
}

// generateMASNORM places the "ciodb exited normally" events inside the
// scheduled-downtime windows of the timeline, where they are innocuous.
func (g *generator) generateMASNORM(c *catalog.Category) {
	windows := g.downtimeWindows()
	sizes := g.burstSizes(c.Raw, c.Filtered)
	for i, size := range sizes {
		var root time.Time
		if len(windows) > 0 {
			w := windows[i%len(windows)]
			root = g.uniformTimeIn(w.from, w.to)
		} else {
			root = g.uniformTime()
		}
		id := g.newIncident(c.Name, root, "")
		g.emitBurst(c, id, root, []string{""}, size, time.Second)
	}
}

// thunderbirdAlertTasks generates the 10 Thunderbird categories with the
// three structures Section 3.3.1 and Section 4 describe: the VAPI floods
// concentrated on a single node, independent exponential ECC events
// (Figure 5), and the spatially correlated CPU-clock bug bursts.
func (g *generator) thunderbirdAlertTasks() []task {
	var tasks []task
	for _, c := range catalog.BySystem(logrec.Thunderbird) {
		switch c.Name {
		case "VAPI":
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateVAPI(c) }))
		case "ECC":
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateECC(c) }))
		case "CPU":
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateCPUClock(c) }))
		case "PBS_CON", "PBS_BFD":
			tn := defaultTuning()
			tn.nodes = 3 // shared-server failures seen by several moms
			tn.gapMean = 2800 * time.Millisecond
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateCategory(c, tn, nil) }))
		default:
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateCategory(c, defaultTuning(), nil) }))
		}
	}
	return tasks
}

// generateVAPI reproduces "Between November 10, 2005 and July 10, 2006,
// Thunderbird experienced 3,229,194 so-called 'Local Catastrophic Errors'
// ... A single node was responsible for 643,925 of them, of which
// filtering removes all but 246."
func (g *generator) generateVAPI(c *catalog.Category) {
	total := g.scaledRaw(c)
	hotTotal := total * 20 / 100 // the hot node's ~20% volume share
	hotNode := "tn42"
	hotSizes := g.burstSizes(hotTotal, 246)
	for _, size := range hotSizes {
		root := g.uniformTime()
		id := g.newIncident(c.Name, root, hotNode)
		g.emitBurst(c, id, root, []string{hotNode}, size, 900*time.Millisecond)
	}
	restSizes := g.burstSizes(total-hotTotal, c.Filtered-246)
	for _, size := range restSizes {
		root := g.uniformTime()
		node := g.m.RandomNodeByRole(g.rng, cluster.RoleCompute).Name
		id := g.newIncident(c.Name, root, node)
		g.emitBurst(c, id, root, []string{node}, size, 900*time.Millisecond)
	}
}

// generateECC reproduces Figure 5: critical ECC memory alerts are
// "basically independent" — a homogeneous Poisson process of singleton
// incidents (146 raw vs 143 filtered: three incidents double-report).
func (g *generator) generateECC(c *catalog.Category) {
	doubles := c.Raw - c.Filtered
	for i := 0; i < c.Filtered; i++ {
		root := g.uniformTime()
		node := g.m.RandomNodeByRole(g.rng, cluster.RoleCompute).Name
		id := g.newIncident(c.Name, root, node)
		size := 1
		if i < doubles {
			size = 2
		}
		g.emitBurst(c, id, root, []string{node}, size, 1500*time.Millisecond)
	}
}

// generateCPUClock reproduces the SMP clock bug: "whenever a set of nodes
// was running a communication-intensive job, they would collectively be
// more prone to encountering this bug" — each incident is a group of 2-5
// nodes reporting within seconds of each other.
func (g *generator) generateCPUClock(c *catalog.Category) {
	sizes := g.burstSizes(g.scaledRaw(c), c.Filtered)
	for _, size := range sizes {
		root := g.uniformTime()
		k := 2 + g.rng.Intn(4)
		// A contiguous node range approximates a job's allocation.
		nodes := make([]string, 0, k)
		base := 1 + g.rng.Intn(230)
		for j := 0; j < k; j++ {
			nodes = append(nodes, nodeName("tn", base+j))
		}
		id := g.newIncident(c.Name, root, nodes...)
		g.emitBurst(c, id, root, nodes, size, 1800*time.Millisecond)
	}
}

// nodeName formats a prefix-plus-index node name.
func nodeName(prefix string, i int) string {
	return prefix + itoa(i)
}

// itoa is a tiny allocation-free positive-int formatter.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 && pos > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// redStormAlertTasks generates the 12 Red Storm categories. BUS_PAR is
// the dominant structure: five enormous DDN controller storms (1.55 M raw
// messages collapsing to 5 filtered alerts) — the CRIT row of Table 6.
func (g *generator) redStormAlertTasks() []task {
	var tasks []task
	for _, c := range catalog.BySystem(logrec.RedStorm) {
		tn := defaultTuning()
		switch c.Name {
		case "BUS_PAR", "ADDR_ERR":
			tn.role = cluster.RoleRAID
			tn.gapMean = 300 * time.Millisecond
		case "CMD_ABORT", "DSK_FAIL":
			tn.role = cluster.RoleRAID
		case "PTL_EXP", "PTL_ERR", "EW", "WT", "RBB", "OST":
			tn.role = cluster.RoleIO
			tn.nodes = 2 // Lustre trouble is visible from several I/O nodes
		case "HBEAT", "TOAST":
			tn.role = cluster.RoleCompute
		}
		tasks = append(tasks, catTask(c, func(s *generator) { s.generateCategory(c, tn, nil) }))
	}
	return tasks
}

// spiritAlertTasks generates the 8 Spirit categories, dominated by the
// chronic disk failure of node sn373 ("node id sn373 logged 89,632,571
// such messages, which was more than half of all Spirit alerts") and the
// six-day February 28 - March 5 storm of 56.8 M alerts. One coincident
// independent incident on sn325 is planted inside the sn373 storm — the
// true positive the simultaneous filter erroneously removes (Section
// 3.3.2).
func (g *generator) spiritAlertTasks() []task {
	var tasks []task
	for _, c := range catalog.BySystem(logrec.Spirit) {
		switch c.Name {
		case "EXT_CCISS":
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateSpiritDisk(c, true) }))
		case "EXT_FS":
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateSpiritDisk(c, false) }))
		case "PBS_CON", "PBS_BFD":
			tn := defaultTuning()
			tn.nodes = 3
			tn.gapMean = 2800 * time.Millisecond
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateCategory(c, tn, nil) }))
		default:
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateCategory(c, defaultTuning(), nil) }))
		}
	}
	return tasks
}

// generateSpiritDisk splits a disk category's volume between sn373's
// chronic storms (just over half) and independent incidents elsewhere.
// withCoincident plants the sn325 incident inside the big storm.
func (g *generator) generateSpiritDisk(c *catalog.Category, withCoincident bool) {
	total := g.scaledRaw(c)
	sn373Total := total * 52 / 100
	sn373Incidents := 3
	otherIncidents := c.Filtered - sn373Incidents
	if withCoincident {
		otherIncidents-- // one incident is reserved for sn325
	}

	// The dominant storm is placed in the paper's February 28 - March 5
	// window (2006, within Spirit's 558-day log).
	stormStart := time.Date(2006, time.February, 28, 6, 0, 0, 0, time.UTC)
	bigSize := sn373Total * 70 / 100
	id := g.newIncident(c.Name, stormStart, "sn373")
	stormEnd := g.emitBurst(c, id, stormStart, []string{"sn373"}, bigSize, 600*time.Millisecond)

	// Two smaller chronic recurrences on sn373.
	restSizes := g.burstSizes(sn373Total-bigSize, sn373Incidents-1)
	for _, size := range restSizes {
		root := g.uniformTime()
		rid := g.newIncident(c.Name, root, "sn373")
		g.emitBurst(c, rid, root, []string{"sn373"}, size, 600*time.Millisecond)
	}

	if withCoincident {
		// sn325's independent failure strictly inside the big storm.
		mid := stormStart.Add(stormEnd.Sub(stormStart) / 2)
		cid := g.newIncident(c.Name, mid, "sn325")
		g.emitBurst(c, cid, mid, []string{"sn325"}, 40, 1200*time.Millisecond)
	}

	otherSizes := g.burstSizes(total-sn373Total, otherIncidents)
	for _, size := range otherSizes {
		root := g.uniformTime()
		node := g.m.RandomNodeByRole(g.rng, cluster.RoleCompute).Name
		oid := g.newIncident(c.Name, root, node)
		g.emitBurst(c, oid, root, []string{node}, size, 600*time.Millisecond)
	}
}

// libertyAlertTasks generates the 6 Liberty categories: the PBS bug of
// Section 3.3.1 (920 killed jobs emitting task_check up to 74 times each,
// confined to one quarter — the horizontal clusters of Figure 4, with
// PBS_BFD as its correlated sibling category) and the GM_PAR → GM_LANAI
// cascade of Figure 3. Each correlated pair is one task: the sibling
// category's events are derived from the primary's, so they must share
// an RNG stream.
func (g *generator) libertyAlertTasks() []task {
	sys := logrec.Liberty
	pbsChk := mustCat(sys, "PBS_CHK")
	pbsBfd := mustCat(sys, "PBS_BFD")
	gmPar := mustCat(sys, "GM_PAR")
	gmLanai := mustCat(sys, "GM_LANAI")

	tasks := []task{
		{label: "alert/pbs-bug", run: func(s *generator) { s.generateLibertyPBSBug(pbsChk, pbsBfd) }},
		{label: "alert/gm-cascade", run: func(s *generator) { s.generateGMCascade(gmPar, gmLanai) }},
	}
	for _, c := range catalog.BySystem(sys) {
		switch c.Name {
		case "PBS_CHK", "PBS_BFD", "GM_PAR", "GM_LANAI":
			continue
		case "PBS_CON":
			tn := defaultTuning()
			tn.nodes = 3
			tn.gapMean = 2800 * time.Millisecond
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateCategory(c, tn, nil) }))
		default:
			tasks = append(tasks, catTask(c, func(s *generator) { s.generateCategory(c, defaultTuning(), nil) }))
		}
	}
	return tasks
}

// generateLibertyPBSBug reproduces the job-killing PBS bug: each afflicted
// job's rank-0 mom repeats task_check up to 74 times before the job is
// killed; a minority of the same failures also surface as PBS_BFD — "a
// particularly outstanding example of correlated alerts relegated to
// different categories" (Figure 4).
func (g *generator) generateLibertyPBSBug(chk, bfd *catalog.Category) {
	// The bug is active during the final quarter of the log window.
	bugStart := g.end.AddDate(0, 0, -79)
	chkSizes := g.burstSizes(chk.Raw, chk.Filtered)
	bfdSizes := g.burstSizes(bfd.Raw, bfd.Filtered)
	bfdLeft := bfd.Filtered
	for i, size := range chkSizes {
		if size > 74 {
			size = 74
		}
		root := g.uniformTimeIn(bugStart, g.end)
		node := g.m.RandomNodeByRole(g.rng, cluster.RoleCompute).Name
		id := g.newIncident(chk.Name, root, node)
		last := g.emitBurst(chk, id, root, []string{node}, size, 3*time.Second)
		// Roughly one in ten afflicted jobs also emits the BFD signature
		// shortly after the task_check run.
		if bfdLeft > 0 && (i%10 == 0 || chk.Filtered-i <= bfdLeft) {
			broot := last.Add(time.Duration(5+g.rng.Intn(120)) * time.Second)
			if broot.Before(g.end) {
				bfdLeft--
				bid := g.newIncident(bfd.Name, broot, node)
				g.emitBurst(bfd, bid, broot, []string{node}, bfdSizes[bfdLeft], 3*time.Second)
			}
		}
	}
}

// generateGMCascade reproduces Figure 3: "GM_LANAI messages do not always
// follow GM_PAR messages, nor vice versa. However, the correlation is
// clear." Roughly two-thirds of LANAI incidents are triggered by a parity
// incident on the same node after a minutes-scale lag; the rest are
// spontaneous, and some parity incidents trigger nothing.
func (g *generator) generateGMCascade(par, lanai *catalog.Category) {
	parSizes := g.burstSizes(par.Raw, par.Filtered)
	triggered := lanai.Filtered * 2 / 3
	lanaiSizes := g.burstSizes(lanai.Raw, lanai.Filtered)
	li := 0
	for i, size := range parSizes {
		root := g.uniformTime()
		node := g.m.RandomNodeByRole(g.rng, cluster.RoleCompute).Name
		id := g.newIncident(par.Name, root, node)
		last := g.emitBurst(par, id, root, []string{node}, size, 2*time.Second)
		if li < triggered && i%2 == 0 {
			lag := time.Duration(1+g.rng.Intn(30)) * time.Minute
			lroot := last.Add(lag)
			if lroot.Before(g.end) {
				lid := g.newIncident(lanai.Name, lroot, node)
				g.emitBurst(lanai, lid, lroot, []string{node}, lanaiSizes[li], 2*time.Second)
				li++
			}
		}
	}
	// Spontaneous LANAI incidents with no preceding parity event.
	for ; li < lanai.Filtered; li++ {
		root := g.uniformTime()
		node := g.m.RandomNodeByRole(g.rng, cluster.RoleCompute).Name
		lid := g.newIncident(lanai.Name, root, node)
		g.emitBurst(lanai, lid, root, []string{node}, lanaiSizes[li], 2*time.Second)
	}
}
