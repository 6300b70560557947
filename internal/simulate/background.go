package simulate

import (
	"fmt"
	"time"

	"whatsupersay/internal/catalog"
	"whatsupersay/internal/cluster"
	"whatsupersay/internal/logrec"
)

// Paper totals from Table 2 ("Messages"). Background volume is the total
// minus the alert volume (the sum of Table 4 raw counts).
var paperMessages = map[logrec.System]int{
	logrec.BlueGeneL:   4747963,
	logrec.Thunderbird: 211212192,
	logrec.RedStorm:    219096168,
	logrec.Spirit:      272298969,
	logrec.Liberty:     265569231,
}

// redStormSyslogMessages is the Table 6 total: the share of Red Storm's
// messages that traveled the syslog path (and therefore carry severities).
const redStormSyslogMessages = 25510188

// paperAlertTotal sums the catalog raw counts for a system.
func paperAlertTotal(sys logrec.System) int {
	n := 0
	for _, c := range catalog.BySystem(sys) {
		n += c.Raw
	}
	return n
}

// sourceWeight reflects the paper's Figure 2(b): "The most prolific
// sources were administrative nodes or those with significant problems."
func sourceWeight(role cluster.Role) int {
	switch role {
	case cluster.RoleAdmin:
		return 500
	case cluster.RoleLogin:
		return 60
	case cluster.RoleService:
		return 40
	case cluster.RoleIO:
		return 25
	case cluster.RoleRAID:
		return 10
	default:
		return 1
	}
}

// sourcePicker draws background sources with role-weighted probability.
type sourcePicker struct {
	nodes  []cluster.Node
	cum    []int
	weight int
}

func newSourcePicker(m *cluster.Machine) *sourcePicker {
	p := &sourcePicker{nodes: m.Nodes, cum: make([]int, len(m.Nodes))}
	for i, n := range m.Nodes {
		p.weight += sourceWeight(n.Role)
		p.cum[i] = p.weight
	}
	return p
}

func (p *sourcePicker) pick(g *generator) string {
	x := g.rng.Intn(p.weight)
	lo, hi := 0, len(p.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p.nodes[lo].Name
}

// bgTemplate is one benign message shape.
type bgTemplate struct {
	program string
	gen     func(g *generator) string
}

// syslogBackground is the benign chatter of the commodity clusters. None
// of these bodies matches any expert rule (guarded by a test).
var syslogBackground = []bgTemplate{
	{"sshd", func(g *generator) string {
		return fmt.Sprintf("session opened for user user%d by (uid=0)", g.rng.Intn(400))
	}},
	{"sshd", func(g *generator) string {
		return fmt.Sprintf("Accepted publickey for user%d from 134.253.%d.%d port %d ssh2", g.rng.Intn(400), g.rng.Intn(255), g.rng.Intn(255), 1024+g.rng.Intn(60000))
	}},
	{"crond", func(g *generator) string {
		return "(root) CMD (run-parts /etc/cron.hourly)"
	}},
	{"ntpd", func(g *generator) string {
		return fmt.Sprintf("synchronized to 134.253.16.%d, stratum 2", g.rng.Intn(16))
	}},
	{"kernel", func(g *generator) string {
		return fmt.Sprintf("eth%d: no IPv6 routers present", g.rng.Intn(2))
	}},
	{"kernel", func(g *generator) string {
		return fmt.Sprintf("nfs: server %s OK", logServer(g.cfg.System))
	}},
	{"pbs_mom", func(g *generator) string {
		return fmt.Sprintf("Job %d.%s started, pid = %d", 100000+g.rng.Intn(900000), logServer(g.cfg.System), 1000+g.rng.Intn(30000))
	}},
	{"pbs_mom", func(g *generator) string {
		return fmt.Sprintf("job %d.%s exited, session %d", 100000+g.rng.Intn(900000), logServer(g.cfg.System), 1000+g.rng.Intn(30000))
	}},
	{"syslogd", func(g *generator) string { return "restart" }},
	{"xinetd", func(g *generator) string {
		return fmt.Sprintf("START: shell pid=%d from=134.253.%d.%d", 1000+g.rng.Intn(30000), g.rng.Intn(255), g.rng.Intn(255))
	}},
	{"portmap", func(g *generator) string {
		return fmt.Sprintf("connect from 134.253.%d.%d to getport(status)", g.rng.Intn(255), g.rng.Intn(255))
	}},
	{"kernel", func(g *generator) string {
		// The corruption-prone Thunderbird VIPKL message of Section
		// 3.2.1 (benign in its uncorrupted form; it matches no rule).
		return "VIPKL(1): [create_mr] MM_bld_hh_mr failed (-253:VAPI_EAGAIN)"
	}},
}

// bglBackgroundBySeverity maps each BG/L severity to its non-alert message
// shapes. Counts come from Table 5 minus the alert column: the 507,103
// non-alert FATALs are what make severity-based tagging 59% false
// positive.
var bglBackgroundBySeverity = map[logrec.Severity][]bgTemplate{
	logrec.SevFatal: {
		{"", func(g *generator) string {
			return "idoproxydb hit ASSERT condition: ASSERT expression=0 source file=idotransportmgr.cpp"
		}},
		{"", func(g *generator) string {
			return fmt.Sprintf("ddr: excessive soft failures, consider replacing the card at %s", bglLoc(g))
		}},
		{"", func(g *generator) string {
			return "fpr performance counter interrupt without hardware support"
		}},
	},
	logrec.SevFailure: {
		{"", func(g *generator) string {
			return "idoproxy communication failure: ido packet timeout"
		}},
	},
	logrec.SevSevere: {
		{"", func(g *generator) string {
			return fmt.Sprintf("boot process warning: cannot read node personality for %s", bglLoc(g))
		}},
	},
	logrec.SevError: {
		{"", func(g *generator) string {
			return fmt.Sprintf("ciod: Message code %d is not 3 or 4113", g.rng.Intn(64))
		}},
		{"", func(g *generator) string {
			return "MailboxMonitor: mailbox read error -2"
		}},
	},
	logrec.SevWarn: {
		{"", func(g *generator) string {
			return fmt.Sprintf("total of %d ddr error(s) detected and corrected over %d seconds", 1+g.rng.Intn(40), g.rng.Intn(600))
		}},
	},
	logrec.SevInfoBGL: {
		{"", func(g *generator) string { return "instruction cache parity error corrected" }},
		{"", func(g *generator) string {
			return fmt.Sprintf("generating core.%d", g.rng.Intn(4096))
		}},
		{"", func(g *generator) string {
			return fmt.Sprintf("CE sym %d, at 0x%08x, mask 0x%02x", g.rng.Intn(32), g.rng.Uint32()&0x0fffffff, g.rng.Intn(256))
		}},
		{"", func(g *generator) string {
			return fmt.Sprintf("%d double-hummer alignment exceptions", 1+g.rng.Intn(4096))
		}},
		{"", func(g *generator) string { return "shutdown complete" }},
	},
}

// bglNonAlertSeverity lists the non-alert message budget per severity
// (Table 5 messages minus alerts). FATAL and FAILURE budgets are
// expressed as ratios to the *generated* alert counts rather than
// absolute paper counts: the small alert categories are generated at
// exact paper counts regardless of Scale (see smallRaw), so scaling the
// non-alert FATALs independently would distort the severity-baseline
// false positive rate — the paper's 59.34% headline number — which is a
// pure ratio of non-alert to total FATAL/FAILURE traffic.
var bglNonAlertSeverity = []struct {
	sev logrec.Severity
	// count is the paper's non-alert message count, scaled by Scale.
	count int
	// perAlert, when non-zero, replaces count with
	// round(generatedAlerts(sev) * perAlert).
	perAlert float64
}{
	{sev: logrec.SevFatal, perAlert: float64(855501-348398) / 348398},
	{sev: logrec.SevFailure, perAlert: float64(1714-62) / 62},
	{sev: logrec.SevSevere, count: 19213},
	{sev: logrec.SevError, count: 112355},
	{sev: logrec.SevWarn, count: 23357},
	{sev: logrec.SevInfoBGL, count: 3735823},
}

// redStormNonAlertSeverity is Table 6's messages-minus-alerts budget for
// the syslog path.
var redStormNonAlertSeverity = []struct {
	sev   logrec.Severity
	count int
}{
	{logrec.SevEmerg, 3},
	{logrec.SevAlert, 654 - 45},
	{logrec.SevCrit, 1552910 - 1550217},
	{logrec.SevErr, 2027598 - 11784},
	{logrec.SevWarning, 2154944 - 270},
	{logrec.SevNotice, 3759620},
	{logrec.SevInfo, 15722695 - 8450},
	{logrec.SevDebug, 291764},
}

// bglLoc formats a BG/L location string.
func bglLoc(g *generator) string {
	return fmt.Sprintf("R%02d-M%d-N%d", g.rng.Intn(16), g.rng.Intn(2), g.rng.Intn(8))
}

// backgroundTasks builds the per-system background shard tasks. Each
// budget is cut into fixed-size shards (see bgShardSize) whose
// boundaries depend only on the budget, so the shard set — and each
// shard's derived RNG stream — depends only on the config. It
// runs after the alert tasks have merged, because the BG/L budgets are
// ratios of the generated alert counts.
func (g *generator) backgroundTasks() []task {
	switch g.cfg.System {
	case logrec.BlueGeneL:
		return g.bglBackgroundTasks()
	case logrec.RedStorm:
		return g.redStormBackgroundTasks()
	case logrec.Liberty:
		return g.libertyBackgroundTasks()
	default:
		return shardTasks("bg/syslog", g.backgroundBudget(), func(s *generator, count int) {
			s.addSyslogBackground(count, nil)
		})
	}
}

// backgroundBudget returns this run's background message count.
func (g *generator) backgroundBudget() int {
	paper := paperMessages[g.cfg.System] - paperAlertTotal(g.cfg.System)
	if paper < 0 {
		paper = 0
	}
	return int(float64(paper) * g.cfg.Scale)
}

// addSyslogBackground emits n benign syslog messages. pickTime overrides
// the uniform time draw (used for Liberty's regimes).
func (g *generator) addSyslogBackground(n int, pickTime func() time.Time) {
	picker := newSourcePicker(g.m)
	for i := 0; i < n; i++ {
		tpl := syslogBackground[g.rng.Intn(len(syslogBackground))]
		var t time.Time
		if pickTime != nil {
			t = pickTime()
		} else {
			t = g.uniformTime()
		}
		g.emitBackground(t, picker.pick(g), logrec.SeverityUnknown, "", tpl.program, tpl.gen(g), catalog.DialectSyslog)
	}
}

// bglBackgroundTasks shards the severity-stratified RAS chatter of
// Table 5. Ratio-based budgets count the alert events already merged.
func (g *generator) bglBackgroundTasks() []task {
	alertsBySev := make(map[logrec.Severity]int)
	for _, e := range g.events {
		if e.cat != nil {
			alertsBySev[e.severity]++
		}
	}
	var tasks []task
	for _, bucket := range bglNonAlertSeverity {
		var n int
		if bucket.perAlert > 0 {
			n = int(float64(alertsBySev[bucket.sev])*bucket.perAlert + 0.5)
		} else {
			n = int(float64(bucket.count) * g.cfg.Scale)
		}
		sev := bucket.sev
		label := fmt.Sprintf("bg/sev%d", sev)
		tasks = append(tasks, shardTasks(label, n, func(s *generator, count int) {
			tpls := bglBackgroundBySeverity[sev]
			fac := "KERNEL"
			switch sev {
			case logrec.SevError:
				fac = "APP"
			case logrec.SevFailure:
				fac = "MMCS"
			}
			for i := 0; i < count; i++ {
				tpl := tpls[s.rng.Intn(len(tpls))]
				s.emitBackground(s.uniformTime(), bglLoc(s), sev, fac, "", tpl.gen(s), catalog.DialectRAS)
			}
		})...)
	}
	return tasks
}

// redStormBackgroundTasks shards the two Red Storm background streams:
// the severity-stratified syslog path (Table 6) and the much larger TCP
// event path, which has no severity analog.
func (g *generator) redStormBackgroundTasks() []task {
	var tasks []task
	for _, bucket := range redStormNonAlertSeverity {
		n := int(float64(bucket.count) * g.cfg.Scale)
		sev := bucket.sev
		tasks = append(tasks, shardTasks(fmt.Sprintf("bg/sev%d", sev), n, func(s *generator, count int) {
			picker := newSourcePicker(s.m)
			for i := 0; i < count; i++ {
				tpl := syslogBackground[s.rng.Intn(len(syslogBackground))]
				s.emitBackground(s.uniformTime(), picker.pick(s), sev, "daemon", tpl.program, tpl.gen(s), catalog.DialectSyslog)
			}
		})...)
	}
	eventBudget := paperMessages[logrec.RedStorm] - redStormSyslogMessages - paperEventAlerts()
	n := int(float64(eventBudget) * g.cfg.Scale)
	tasks = append(tasks, shardTasks("bg/event", n, func(s *generator, count int) {
		for i := 0; i < count; i++ {
			node := s.m.RandomNodeByRole(s.rng, cluster.RoleCompute).Name
			body := fmt.Sprintf("ec_node_info src:::%s svc:::%s node health ok", node, node)
			if s.rng.Intn(8) == 0 {
				body = fmt.Sprintf("ec_console_log src:::%s svc:::%s normal boot sequence complete", node, node)
			}
			s.emitBackground(s.uniformTime(), node, logrec.SeverityUnknown, "", "", body, catalog.DialectEvent)
		}
	})...)
	return tasks
}

// paperEventAlerts sums the raw counts of Red Storm's event-dialect alert
// categories (HBEAT, TOAST).
func paperEventAlerts() int {
	n := 0
	for _, c := range catalog.BySystem(logrec.RedStorm) {
		if c.Dialect == catalog.DialectEvent {
			n += c.Raw
		}
	}
	return n
}

// libertyRegimes is the piecewise background-rate schedule behind Figure
// 2(a): the OS-upgrade step at the end of Q1 2005 ("the machine was put
// into production use"), plus two later shifts whose causes "are not well
// understood at this time".
type regime struct {
	from   time.Time
	factor float64
	cause  string
}

func libertyRegimes(start time.Time) []regime {
	return []regime{
		{from: start, factor: 1.0, cause: "initial configuration"},
		{from: time.Date(2005, time.March, 31, 8, 0, 0, 0, time.UTC), factor: 2.6, cause: "OS upgrade; production use begins"},
		{from: time.Date(2005, time.June, 15, 0, 0, 0, 0, time.UTC), factor: 1.8, cause: "unexplained shift"},
		{from: time.Date(2005, time.August, 20, 0, 0, 0, 0, time.UTC), factor: 2.3, cause: "unexplained shift"},
	}
}

// libertyBackgroundTasks allocates the background budget across the
// rate regimes proportionally to duration x factor (a deterministic
// computation), then shards each regime's count with uniform times
// inside the regime.
func (g *generator) libertyBackgroundTasks() []task {
	n := g.backgroundBudget()
	regimes := libertyRegimes(g.start)
	type seg struct {
		from, to time.Time
		weight   float64
	}
	segs := make([]seg, 0, len(regimes))
	for i, r := range regimes {
		to := g.end
		if i+1 < len(regimes) {
			to = regimes[i+1].from
		}
		if !r.from.Before(to) {
			continue
		}
		segs = append(segs, seg{from: r.from, to: to, weight: to.Sub(r.from).Hours() * r.factor})
	}
	total := 0.0
	for _, s := range segs {
		total += s.weight
	}
	var tasks []task
	for si, sg := range segs {
		count := int(float64(n) * sg.weight / total)
		from, to := sg.from, sg.to
		tasks = append(tasks, shardTasks(fmt.Sprintf("bg/regime%d", si), count, func(s *generator, shardCount int) {
			s.addSyslogBackground(shardCount, func() time.Time { return s.uniformTimeIn(from, to) })
		})...)
	}
	return tasks
}
