package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// report turns a finished run into metrics.
type report struct {
	ds            *dataset
	r             *runner
	setups        []setupTimes
	before, after counters
	rss           float64
}

// strategies are the routes the optimizer arbitrates, as reported per
// traced read.
var strategies = []string{"chain", "section4", "qsqnet", "seminaive", "magic"}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile interpolates linearly between the order statistics of xs
// (sorted in place); 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (rp *report) setupMedian(f func(setupTimes) time.Duration) float64 {
	var xs []float64
	for _, s := range rp.setups {
		xs = append(xs, f(s).Seconds())
	}
	return quantile(xs, 0.5)
}

// windowed holds a metric's samples by (phase, window).
type windowed map[[2]int][]float64

func (w windowed) add(r *runner, s sample, v float64) {
	k := [2]int{s.phase, r.window(s)}
	w[k] = append(w[k], v)
}

func (w windowed) count() int {
	n := 0
	for _, xs := range w {
		n += len(xs)
	}
	return n
}

// quantile is the median over windows of the windows' q-quantiles.
func (w windowed) quantile(q float64) float64 {
	var per []float64
	for _, xs := range w {
		per = append(per, quantile(xs, q))
	}
	return quantile(per, 0.5)
}

// endToEnd computes the user-visible metrics from the untraced requests,
// with the sample count behind each.
func (rp *report) endToEnd() (map[string]metric, map[string]int) {
	ds, r := rp.ds, rp.r
	reads, writes, lags := windowed{}, windowed{}, windowed{}
	counts := map[string]int{}
	for _, s := range r.samples {
		if s.phase < 0 || s.failed {
			continue
		}
		role := ds.Phases[s.phase].Role
		if s.write {
			t, seen := r.c.watch.arr.when(s.epoch)
			if !seen {
				counts["watch_missing"]++
				continue
			}
			if !s.traced && role&roleWrites != 0 {
				writes.add(r, s, ms(s.lat))
				lags.add(r, s, ms(t.Sub(s.due)))
			}
		} else if !s.traced && role&roleReads != 0 {
			reads.add(r, s, ms(s.lat))
		}
	}
	// CPU per request: all process CPU of the phases that feed a metric,
	// over the requests they completed.
	var readCPU, writeCPU time.Duration
	var qps []float64
	completed := 0
	for pi, ph := range ds.Phases {
		sp := r.spans[pi]
		if ph.Role&roleQPS != 0 {
			readCPU += sp.cpu
			completed += sp.done.completed()
			for _, d := range sp.done.done {
				qps = append(qps, float64(d)/(sp.end.Sub(sp.start).Seconds()/windows))
			}
		}
		if ph.Role&roleWrites != 0 {
			writeCPU += sp.cpu
		}
	}
	m := map[string]metric{
		"setup_s":                 {rp.setupMedian(func(s setupTimes) time.Duration { return s.total }), "s"},
		"read_qps":                {quantile(qps, 0.5), "1/s"},
		"read_cpu_us":             {ratio(us(readCPU), float64(completed)), "us"},
		"write_cpu_us":            {ratio(us(writeCPU), float64(writes.count())), "us"},
		"wal_bytes_per_user_byte": {ratio(float64(rp.after.walBytes-rp.before.walBytes), float64(r.userBytes)), "ratio"},
		"peak_rss_mb":             {rp.rss, "MB"},
	}
	counts["read_qps"] = completed
	counts["read_cpu_us"] = completed
	counts["write_cpu_us"] = writes.count()
	counts["setup_s"] = len(rp.setups)
	for name, w := range map[string]windowed{"read": reads, "write": writes, "watch_lag": lags} {
		for _, p := range []int{50, 90, 99} {
			n := fmt.Sprintf("%s_p%d_ms", name, p)
			m[n] = metric{w.quantile(float64(p) / 100), "ms"}
			counts[n] = w.count()
		}
	}
	return m, counts
}

// classLatencies summarizes the untraced latency of each traffic class.
func (rp *report) classLatencies() map[string]map[string]float64 {
	by := map[string][]float64{}
	for _, s := range rp.r.samples {
		if s.phase >= 0 && !s.failed && !s.traced {
			by[s.class] = append(by[s.class], ms(s.lat))
		}
	}
	out := map[string]map[string]float64{}
	for class, xs := range by {
		out[class] = map[string]float64{"n": float64(len(xs)), "p50_ms": quantile(xs, 0.5), "p90_ms": quantile(xs, 0.9), "p99_ms": quantile(xs, 0.99)}
	}
	return out
}

// lateness summarizes how late the open-loop generator sent requests.
func (rp *report) lateness() map[string]float64 {
	xs := make([]float64, len(rp.r.late))
	for i, d := range rp.r.late {
		xs[i] = ms(d)
	}
	return map[string]float64{"p50": quantile(xs, 0.5), "p90": quantile(xs, 0.9), "p99": quantile(xs, 0.99), "max": quantile(xs, 1)}
}

// perLayer computes the per-layer metrics: self times from the spans of
// traced requests, work counts from "stats": true responses, and counter
// deltas read through the program's public calls and metrics registries.
func (rp *report) perLayer() map[string]metric {
	ds, r := rp.ds, rp.r
	var transport, decode, encode, self, run, render, share, bare, maintain []float64
	if r.tr != nil {
		for _, q := range r.tr.byRequest() {
			ch := q.children
			if q.client.Name == "delta" {
				if b, ok := ch["edb.apply_bare"]; ok {
					bare = append(bare, us(b))
					maintain = append(maintain, us(ch["ivm.apply_views"]-b))
				}
				continue
			}
			h, okH := ch["server.handler"]
			ru, okR := ch["chainlog.run"]
			if !okH || !okR {
				continue
			}
			client := q.client.dur()
			transport = append(transport, us(client-h))
			decode = append(decode, us(ch["server.decode"]))
			encode = append(encode, us(ch["server.encode"]))
			self = append(self, us(h-ch["server.decode"]-ru-ch["server.encode"]))
			run = append(run, us(ru))
			render = append(render, us(ru-ch["chainlog.run_syms"]))
			share = append(share, ratio(float64(ru), float64(client)))
		}
	}
	// Replication visibility and watch delivery, per traced delta.
	var visible, deliver, tracedReads, plainReads, late []float64
	var lagMax uint64
	writes := 0
	for _, s := range r.samples {
		if s.phase < 0 || s.failed {
			continue
		}
		if s.write {
			writes++
			lagMax = max(lagMax, s.ackLag)
			if s.traced && r.c.visible != nil {
				vt, okV := r.c.visible.arr.when(s.epoch)
				wt, okW := r.c.watch.arr.when(s.epoch)
				if okV && okW {
					visible = append(visible, us(vt.Sub(s.due.Add(s.lat))))
					deliver = append(deliver, us(wt.Sub(vt)))
				}
			}
		} else if ds.Phases[s.phase].Role&roleReads != 0 {
			if s.traced {
				tracedReads = append(tracedReads, ms(s.lat))
			} else {
				plainReads = append(plainReads, ms(s.lat))
			}
		}
	}
	late = make([]float64, len(r.late))
	for i, d := range r.late {
		late[i] = ms(d)
	}
	b, a := rp.before, rp.after
	dp := func(name string) float64 { return a.prim[name] - b.prim[name] }
	regHits, regMisses := dp("chainlogd_plan_cache_hits_total"), dp("chainlogd_plan_cache_misses_total")
	dbHits, dbMisses := float64(a.plans.Hits-b.plans.Hits), float64(a.plans.Misses-b.plans.Misses)
	fsyncs := dp("chainlogd_wal_fsync_seconds_count")
	w := r.c.watch
	w.mu.Lock()
	resets, reconnects := w.resets, w.reconnects
	w.mu.Unlock()

	m := map[string]metric{
		"http.transport_us":                {quantile(transport, 0.5), "us"},
		"server.decode_us":                 {quantile(decode, 0.5), "us"},
		"server.encode_us":                 {quantile(encode, 0.5), "us"},
		"server.handler_self_us":           {quantile(self, 0.5), "us"},
		"server.plan_registry_hit_ratio":   {ratio(regHits, regHits+regMisses), "ratio"},
		"server.plan_compiles":             {dp("chainlogd_plan_compiles_total"), "count"},
		"server.rejected":                  {dp("chainlogd_rejected_total"), "count"},
		"chainlog.run_us":                  {quantile(run, 0.5), "us"},
		"chainlog.run_us_p99":              {quantile(run, 0.99), "us"},
		"chainlog.render_us":               {quantile(render, 0.5), "us"},
		"chainlog.db_plan_cache_hit_ratio": {ratio(dbHits, dbHits+dbMisses), "ratio"},
		"chainlog.eval_share":              {quantile(share, 0.5), "ratio"},
		"optimizer.reoptimizations":        {float64(a.reopts - b.reopts), "count"},
		"edb.apply_bare_us":                {quantile(bare, 0.5), "us"},
		"ivm.maintain_us":                  {quantile(maintain, 0.5), "us"},
		"ivm.maintained":                   {float64(a.maintained - b.maintained), "count"},
		"ivm.recomputed":                   {float64(a.recomputed - b.recomputed), "count"},
		"ivm.repairs":                      {float64(a.repairs - b.repairs), "count"},
		"wal.fsyncs_per_write":             {ratio(fsyncs, float64(writes)), "ratio"},
		"wal.fsync_us":                     {1e6 * ratio(dp("chainlogd_wal_fsync_seconds_sum"), fsyncs), "us"},
		"wal.snapshots":                    {dp("chainlogd_wal_snapshots_total"), "count"},
		"repl.visible_us":                  {quantile(visible, 0.5), "us"},
		"repl.applied":                     {a.repl["chainlogd_replication_applied_total"] - b.repl["chainlogd_replication_applied_total"], "count"},
		"repl.lag_epochs_max":              {float64(lagMax), "count"},
		"watch.deliver_us":                 {quantile(deliver, 0.5), "us"},
		"watch.reconnects":                 {float64(reconnects), "count"},
		"watch.resets":                     {float64(resets), "count"},
		"setup.load_s":                     {rp.setupMedian(func(s setupTimes) time.Duration { return s.load }), "s"},
		"setup.compile_s":                  {rp.setupMedian(func(s setupTimes) time.Duration { return s.compile }), "s"},
		"setup.replica_bootstrap_s":        {rp.setupMedian(func(s setupTimes) time.Duration { return s.bootstrap }), "s"},
		"gen.late_p99_ms":                  {quantile(late, 0.99), "ms"},
		"trace.overhead_ratio":             {ratio(quantile(tracedReads, 0.5), quantile(plainReads, 0.5)), "ratio"},
	}
	type work struct{ queries, nodes, facts, lookups, rows int64 }
	per := map[string]*work{}
	for _, s := range strategies {
		per[s] = &work{}
	}
	if r.tr != nil {
		r.tr.mu.Lock()
		for _, rs := range r.tr.reads {
			if wk := per[rs.strategy]; wk != nil {
				wk.queries++
				wk.nodes += rs.nodes
				wk.facts += rs.facts
				wk.lookups += rs.lookups
				wk.rows += int64(rs.rows)
			}
		}
		r.tr.mu.Unlock()
	}
	for _, s := range strategies {
		wk := per[s]
		m["optimizer.strategy."+s] = metric{float64(wk.queries), "count"}
		m["eval.nodes_per_query."+s] = metric{ratio(float64(wk.nodes), float64(wk.queries)), "count"}
		m["edb.retrieved_per_row."+s] = metric{ratio(float64(wk.facts), float64(wk.rows)), "ratio"}
		m["edb.lookups_per_query."+s] = metric{ratio(float64(wk.lookups), float64(wk.queries)), "count"}
	}
	return m
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// fsNames maps statfs magic numbers of common filesystems.
var fsNames = map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
	0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

func l2Bytes() int {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size")
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(b))
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, _ := strconv.Atoi(s)
	return n * mult
}

// hostRecord describes where and how the run happened.
func hostRecord(ds *dataset, walDir string) map[string]any {
	return map[string]any{
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go_version":         runtime.Version(),
		"wal_filesystem":     fsType(walDir),
		"fsync_policy":       "always",
		"l2_bytes":           l2Bytes(),
		"dataset":            ds.Sizes,
		"distinct_templates": len(templatesOf(ds)),
		// The server's plan registry holds at most 1024 plans; the DB
		// plan cache behind one-shot "query" bodies is bounded only by the
		// number of distinct query shapes.
		"plan_registry_bound": 1024,
		"db_plan_cache_bound": "distinct query shapes",
	}
}

func phaseRecord(ds *dataset) []map[string]any {
	var out []map[string]any
	for _, ph := range ds.Phases {
		mode := "open"
		if ph.Mode == closedLoop {
			mode = "closed"
		}
		rec := map[string]any{"name": ph.Name, "loop": mode, "connections": ph.Conns}
		if ph.Mode == openLoop {
			rec["rate_per_s"] = ph.Rate
			rec["requests"] = len(ph.Schedule)
		} else {
			rec["seconds"] = ph.Seconds
		}
		out = append(out, rec)
	}
	return out
}
