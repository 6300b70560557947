// Command benchmark is the repository's performance instrument: four
// serve-tier workloads driven against `logstudy serve` and `logstudy
// build-store` subprocesses over loopback HTTP, every answer checked
// against an in-process reference, plus a traced in-process replay that
// attributes the time to layers. See README.md.
//
//	bash benchmark/run.sh                      every workload, both runs, one JSON document
//	bash benchmark/run.sh --workload history --seed 3 --seconds 15 --trace 0
//	bash benchmark/run.sh -selfcheck           the whole benchmark twice, differences against bounds
//	bash benchmark/run.sh -spread 10           ten seeds a workload, each metric's spread against its bound
//	bash benchmark/run.sh -quick               same code paths on a tenth of the content
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	quick     bool
	selfcheck bool
	spread    int
	pin       bool
	bin       string
	work      string
	out       string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload only and print the driver's one-line result (default: all workloads, untraced and traced)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: content, queries and schedule derive from it")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of the traced run")
	flag.BoolVar(&o.quick, "quick", false, "a tenth of the content and one second per run: a smoke test, not a measurement")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the whole benchmark twice and print each end-to-end metric's relative difference against its bound")
	flag.IntVar(&o.spread, "spread", 0, "run every workload (or -workload) at this many seeds from -seed up and print each end-to-end metric's spread, as the driver takes it, against its bound")
	flag.BoolVar(&o.pin, "pin", false, "print the fingerprints of every workload at seeds 1 and 2, in the form of fingerprints.json, and run nothing")
	flag.StringVar(&o.bin, "logstudy", ".bench_build/logstudy", "the built cmd/logstudy binary (run.sh builds it)")
	flag.StringVar(&o.work, "work", ".bench_build/tmp", "scratch directory for stores and logs; each run removes what it made")
	flag.StringVar(&o.out, "out", "benchmark/out", "where the traced run writes trace-<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if o.quick {
		o.seconds = min(o.seconds, 1)
	}

	h, err := newHarness(o.bin, o.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	h.onSignal()
	err = run(h, o)
	h.close()
	if err != nil {
		// Nothing is printed on standard output: a wrong answer or a
		// failed set-up yields no metrics.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(h *harness, o options) error {
	r := &runner{h: h, clients: clientCount(runtime.NumCPU()), seed: o.seed}
	switch {
	case o.pin:
		return printPins()
	case o.selfcheck:
		return selfcheck(r, o)
	case o.spread > 0:
		return spread(r, o)
	case o.workload != "":
		return runOne(r, o)
	}
	doc, err := runAll(r, o)
	if err != nil {
		return err
	}
	return printJSON(doc, true)
}

func specFor(name string, quick bool) (spec, error) {
	sp, ok := findWorkload(name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return sp, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if quick {
		sp = sp.quick()
	}
	return sp, nil
}

// driverResult is the one-line document the driver reads.
type driverResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne is the driver's entry: one workload, one kind of run, one line.
func runOne(r *runner, o options) error {
	sp, err := specFor(o.workload, o.quick)
	if err != nil {
		return err
	}
	var res driverResult
	if o.trace == 0 {
		rep, err := r.runEndToEnd(sp, o.seconds, minReps)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s seed %d: %d repetitions, %.1fs measured, fingerprint %s\n",
			sp.name, o.seed, rep.Reps, rep.MeasuredS, rep.Fingerprint)
		res = driverResult{Correct: true, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: only(rep.Metrics, endToEnd)}
	} else {
		rep, err := r.runTraced(sp, o)
		if err != nil {
			return err
		}
		res = driverResult{Correct: true, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: only(rep.Metrics, perLayer)}
	}
	return printJSON(res, false)
}

// minReps is the fewest repetitions a run makes, so that the
// per-repetition set-up is taken as a median.
const minReps = 3

// only keeps the metrics the contract lists, without the sample counts
// the driver does not expect.
func only(m map[string]value, defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: m[d.name].Value, Unit: d.unit}
	}
	return out
}

// environment is recorded with every full run: numbers from different
// machines or toolchains are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
	Quick      bool   `json:"quick,omitempty"`
}

func environmentOf(r *runner, o options) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Clients: r.clients, Quick: o.quick,
	}
}

// fullReport is every workload's untraced and traced run.
type fullReport struct {
	Env       environment    `json:"environment"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Workloads []workloadPair `json:"workloads"`
}

type workloadPair struct {
	Name     string       `json:"name"`
	Why      string       `json:"why"`
	EndToEnd *e2eReport   `json:"end_to_end"`
	PerLayer *traceReport `json:"per_layer"`
}

func runAll(r *runner, o options) (*fullReport, error) {
	doc := &fullReport{Env: environmentOf(r, o), Seed: o.seed, Seconds: o.seconds}
	for _, w := range workloads {
		sp, err := specFor(w.name, o.quick)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: end to end\n", sp.name)
		e2e, err := r.runEndToEnd(sp, o.seconds, minReps)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: traced\n", sp.name)
		tr, err := r.runTraced(sp, o)
		if err != nil {
			return nil, err
		}
		doc.Workloads = append(doc.Workloads, workloadPair{Name: sp.name, Why: sp.why, EndToEnd: e2e, PerLayer: tr})
	}
	return doc, nil
}

func printJSON(v any, indent bool) error {
	enc := json.NewEncoder(os.Stdout)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}

// pinnedSeeds are the seeds whose fingerprints fingerprints.json holds.
var pinnedSeeds = []int64{1, 2}

// printPins regenerates fingerprints.json's content. Pin again only
// when a workload is changed on purpose, and re-measure the baseline.
func printPins() error {
	pins := map[string]string{}
	for _, sp := range workloads {
		for _, seed := range pinnedSeeds {
			_, fp, err := prepare(sp, seed)
			if err != nil {
				return err
			}
			pins[fmt.Sprintf("%s/%d", sp.name, seed)] = fp
		}
	}
	return printJSON(pins, true)
}

// pinned fingerprints: benchmark/fingerprints.json maps
// "<workload>/<seed>" to the fingerprint of everything that workload
// puts on the wire at that seed. A run whose content hashes differently
// is refused, so a change to internal/simulate cannot silently change
// what is measured. Seeds that are not pinned run unchecked.
func checkFingerprint(sp spec, seed int64, got string) error {
	data, err := os.ReadFile(filepath.Join("benchmark", "fingerprints.json"))
	if err != nil {
		return err
	}
	var pinned map[string]string
	if err := json.Unmarshal(data, &pinned); err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	if full, _ := findWorkload(sp.name); sp.scale != full.scale {
		return nil // -quick runs other content and is not pinned
	}
	key := fmt.Sprintf("%s/%d", sp.name, seed)
	if want, ok := pinned[key]; ok && want != got {
		return fmt.Errorf("workload drift: %s hashes to %s, benchmark/fingerprints.json pins %s; "+
			"the generator or the workload definition changed, so numbers are not comparable with earlier ones", key, got, want)
	}
	return nil
}
