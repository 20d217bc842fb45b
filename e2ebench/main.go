// Command e2ebench is chainlogd's end-to-end and per-layer benchmark. It
// boots a primary and a replica in-process on real 127.0.0.1 listeners,
// drives one seeded workload over loopback HTTP, checks every answer,
// and prints one JSON line of metrics. See README.md.
//
// Usage:
//
//	e2ebench --workload point-read --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"chainlog"
)

// setupRounds is how many times a run boots the cluster; setup_s is the
// median, and the last cluster serves the traffic.
const setupRounds = 9

// gatedMetrics are the end-to-end metrics BENCHMARK.json names, printed
// by an untraced run. The others go to the result file and standard
// error: on a shared 2-vCPU virtual host the spread of read_qps, of the
// fsync-bound write and watch latencies and of every tail percentile
// across runs exceeds the largest bound a gate may use.
var gatedMetrics = []string{"setup_s", "read_p50_ms", "read_cpu_us", "write_cpu_us",
	"wal_bytes_per_user_byte", "peak_rss_mb"}

// maxLateP99 marks an open-loop run invalid: a generator that sends its
// requests later than this has fallen behind its schedule. Stalls of a
// shared virtual host alone put the p99 at up to about 15 ms.
const maxLateP99 = 100 * time.Millisecond

// outDir holds result files, spans and the run's WAL directories,
// relative to the directory the benchmark runs in.
var outDir = filepath.Join(".bench_build", "e2ebench")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all (one JSON line each)")
	seed := fs.Int64("seed", 1, "seed for the dataset and the request sequence")
	seconds := fs.Float64("seconds", 30, "how long the traffic runs, split across the workload's phases")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run; 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *workload != "all" {
		return runWorkload(*workload, *seed, *seconds, *trace == 1, stdout, stderr)
	}
	// Each workload runs in its own process, so peak_rss_mb is its own.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(*seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(*trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

func runWorkload(workload string, seed int64, seconds float64, traced bool, stdout, stderr io.Writer) int {
	ds, err := generate(workload, seed, seconds, runtime.NumCPU())
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	res, err := execute(ds, outDir, traced, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if res.invalid != "" {
		fmt.Fprintln(stderr, "e2ebench: run invalid, latencies not reported:", res.invalid)
		return 3
	}
	line, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.summary.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type outcome struct {
	summary summary
	invalid string
}

// counters is a snapshot of the program's own counters, read through
// public calls and the servers' metrics registries.
type counters struct {
	prim, repl             map[string]float64
	plans                  chainlog.PlanCacheStats
	reopts                 uint64
	maintained, recomputed uint64
	repairs                uint64
	walBytes               int64
}

func (c *cluster) counters() (counters, error) {
	var k counters
	k.prim = scrape(c.primary.srv.Metrics())
	k.repl = scrape(c.replica.srv.Metrics())
	db := c.primary.db
	k.plans = db.PlanCacheStats()
	k.reopts = db.Reoptimizations()
	k.maintained, k.recomputed = db.ViewStats()
	for _, m := range c.views {
		k.repairs += m.Stats().Repairs
	}
	var err error
	k.walBytes, err = walSegmentBytes(c.primary.dir)
	return k, err
}

func execute(ds *dataset, outDir string, traced bool, stderr io.Writer) (*outcome, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	hc := newConn()
	defer hc.close()

	var setups []setupTimes
	var c *cluster
	for i := 0; i < setupRounds; i++ {
		c, err = boot(ds, filepath.Join(runDir, fmt.Sprintf("boot%d", i)), tr, hc)
		if err != nil {
			if c != nil {
				_ = c.close(hc) // the boot error is the one to report
			}
			return nil, err
		}
		setups = append(setups, c.setup)
		if i < setupRounds-1 {
			if err := c.close(hc); err != nil {
				return nil, err
			}
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	r := &runner{ds: ds, c: c, tr: tr, spans: make([]phaseSpan, len(ds.Phases))}
	if traced {
		if r.shadowBare, r.shadowViews, err = shadows(ds); err != nil {
			_ = c.close(hc)
			return nil, err
		}
	}
	r.warm()
	r.writeEpoch = c.primary.db.FactEpoch()
	before, err := c.counters()
	if err != nil {
		_ = c.close(hc)
		return nil, err
	}
	start := time.Now()
	for pi, ph := range ds.Phases {
		// Each phase starts from a collected heap, so the garbage a
		// previous phase left does not set when its collections run.
		runtime.GC()
		if ph.Mode == openLoop {
			r.openLoop(pi, ph)
		} else {
			r.closedLoop(pi, ph)
		}
	}
	trafficSeconds := time.Since(start).Seconds()
	after, err := c.counters()
	if err != nil {
		_ = c.close(hc)
		return nil, err
	}
	checkErrs := r.finalChecks()
	rss := peakRSSMB()
	if err := c.close(hc); err != nil {
		checkErrs = append(checkErrs, fmt.Errorf("shutdown: %w", err))
	}
	var acked []uint64
	for _, s := range r.samples {
		if s.write && !s.failed {
			acked = append(acked, s.epoch)
		}
	}
	if err := checkRecovery(ds, c.primary.dir, acked); err != nil {
		checkErrs = append(checkErrs, err)
	}

	rep := &report{ds: ds, r: r, setups: setups, before: before, after: after, rss: rss}
	e2e, counts := rep.endToEnd()
	layers := rep.perLayer()
	attempted, failed := len(r.samples)+r.unrecorded.attempted, r.unrecorded.failed
	for _, s := range r.samples {
		if s.failed {
			failed++
		}
	}
	// Every delta must have reached the watch stream.
	failed += counts["watch_missing"]
	for _, msg := range r.failures {
		fmt.Fprintln(stderr, "e2ebench: failure:", msg)
	}
	for _, e := range checkErrs {
		fmt.Fprintln(stderr, "e2ebench: end check failed:", e)
	}
	res := &outcome{summary: summary{Correct: failed == 0 && len(checkErrs) == 0, Attempted: attempted, Failed: failed}}
	res.summary.Metrics = map[string]metric{}
	for _, n := range gatedMetrics {
		res.summary.Metrics[n] = e2e[n]
	}
	if traced {
		res.summary.Metrics = layers
	}
	if late := layers["gen.late_p99_ms"].Value; late > float64(maxLateP99)/float64(time.Millisecond) {
		res.invalid = fmt.Sprintf("the generator ran %.2f ms late at p99 (limit %s)", late, maxLateP99)
	}

	errorRate := float64(failed) / float64(attempted)
	host := hostRecord(ds, c.primary.dir)
	fmt.Fprintf(stderr, "e2ebench: %s seed %d, %.1fs of traffic, %d attempted, %d failed, error_rate %g\n",
		ds.Workload, ds.Seed, trafficSeconds, attempted, failed, errorRate)
	printMetrics(stderr, "end-to-end", e2e, counts)
	printMetrics(stderr, "per-layer", layers, nil)
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", ds.Workload, ds.Seed, boolInt(traced)))
	file := map[string]any{
		"workload": ds.Workload, "seed": ds.Seed, "traced": traced, "host": host,
		"attempted": attempted, "failed": failed, "error_rate": errorRate,
		"correct": res.summary.Correct, "invalid": res.invalid, "failures": r.failures,
		"end_to_end": e2e, "per_layer": layers, "samples": counts, "traffic_seconds": trafficSeconds,
		"phases": phaseRecord(ds), "classes": rep.classLatencies(), "lateness_ms": rep.lateness(),
	}
	var checkMsgs []string
	for _, e := range checkErrs {
		checkMsgs = append(checkMsgs, e.Error())
	}
	file["end_check_failures"] = checkMsgs
	if err := writeJSONFile(base+".json", file); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.write(base + ".spans.jsonl"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// shadows builds the two replay DBs of a traced run: the loaded dataset
// without views, and with the workload's views (the library views plus
// the watched view).
func shadows(ds *dataset) (bare, views *chainlog.DB, err error) {
	bare, views = chainlog.NewDB(), chainlog.NewDB()
	if err := loadDataset(bare, ds); err != nil {
		return nil, nil, err
	}
	if err := loadDataset(views, ds); err != nil {
		return nil, nil, err
	}
	p, err := views.Prepare(tmplTC, chainlog.Options{})
	if err != nil {
		return nil, nil, err
	}
	for _, root := range append(slices.Clone(ds.Views), ds.WatchArg) {
		if _, err := p.Materialize(root); err != nil {
			return nil, nil, err
		}
	}
	return bare, views, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printMetrics(w io.Writer, title string, ms map[string]metric, counts map[string]int) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "  %s:\n", title)
	for _, n := range names {
		extra := ""
		if c, ok := counts[n]; ok {
			extra = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "    %-36s %14.4f %s%s\n", n, ms[n].Value, ms[n].Unit, extra)
	}
}
