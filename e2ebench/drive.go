package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"chainlog"
	"chainlog/internal/server"
	"chainlog/internal/symtab"
	"chainlog/internal/wal"
)

// conn is one client connection: a transport that holds at most one
// keep-alive connection, so "n connections" means n sockets.
type conn struct {
	client *http.Client
	tr     *http.Transport
}

func newConn() *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr}, tr: tr}
}

func (c *conn) post(url string, body []byte, spanID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != "" {
		req.Header.Set(spanHeader, spanID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// checkRead verifies a /v1/query response against the request's
// expected answer.
func checkRead(req *request, status int, body []byte, out *server.QueryResult) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", req.Template, strings.Join(req.Args, ","), status, bytes.TrimSpace(body))
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding query response: %w", err)
	}
	if resp.Result == nil {
		return errors.New("query response has no result")
	}
	if err := req.Want.check(resp.Result.Rows); err != nil {
		return fmt.Errorf("%s %s: wrong answer: %w", req.Template, strings.Join(req.Args, ","), err)
	}
	if out != nil {
		*out = *resp.Result
	}
	return nil
}

// sample is one completed request.
type sample struct {
	phase  int
	class  string
	write  bool
	traced bool
	failed bool
	due    time.Time
	lat    time.Duration // from due (open loop) or from send (closed loop)
	epoch  uint64        // deltas: the epoch the primary acknowledged
	ackLag uint64        // deltas: epochs the replica trailed at the ack
}

// runner drives one workload against a booted cluster.
type runner struct {
	ds *dataset
	c  *cluster
	tr *tracer // nil in untraced runs

	// shadow DBs replay deltas in traced runs: one bare, one carrying
	// the workload's views.
	shadowBare, shadowViews *chainlog.DB

	mu         sync.Mutex
	samples    []sample
	late       []time.Duration
	failures   []string
	userBytes  int64
	writeEpoch uint64      // the single writer's last acknowledged epoch
	spans      []phaseSpan // per phase: when its traffic was due
	unrecorded tally       // requests of closed loops that kept no samples
}

// phaseSpan is when a phase's traffic was due, and the CPU time the
// whole process (servers and harness) spent while it ran.
type phaseSpan struct {
	start, end time.Time
	cpu        time.Duration
	done       tally // closed loop only
}

// cpuTime is the process's user plus system CPU time so far. Time the
// host steals from the virtual CPUs is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windows is how many equal windows of its phase a metric is computed
// in; a run reports the median over windows, so one stall of the host
// moves one window, not the run.
const windows = 10

// window places a sample in its phase's windows by due time.
func (r *runner) window(s sample) int {
	sp := r.spans[s.phase]
	w := int(windows * s.due.Sub(sp.start).Seconds() / sp.end.Sub(sp.start).Seconds())
	return min(max(w, 0), windows-1)
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// exec sends one request and checks its answer. Every other request is
// traced in a traced run, so the untraced half gives the overhead base.
func (r *runner) exec(c *conn, pi int, req *request, due time.Time, traced bool) sample {
	s := sample{phase: pi, class: req.Class, write: req.Ops != nil, traced: traced, due: due}
	body, spanID := req.Body, ""
	var id uint64
	if traced {
		body = req.traced()
		id = r.tr.newID()
		spanID = strconv.FormatUint(id, 10)
	}
	start := time.Now()
	status, resp, err := c.post(r.c.primary.url+req.Path, body, spanID)
	end := time.Now()
	s.lat = end.Sub(due)
	if traced {
		r.tr.addRoot(id, req.Class, start, end)
	}
	if err != nil {
		s.failed = true
		r.fail("%s: %v", req.Path, err)
		return s
	}
	if s.write {
		if err := r.checkDelta(req, status, resp, &s); err != nil {
			s.failed = true
			r.fail("%v", err)
			return s
		}
		if traced {
			r.replayDelta(id, req)
		}
		return s
	}
	var res server.QueryResult
	if err := checkRead(req, status, resp, &res); err != nil {
		s.failed = true
		r.fail("%v", err)
		return s
	}
	if traced {
		r.replayRead(id, req, body, &res)
	}
	return s
}

func (r *runner) checkDelta(req *request, status int, body []byte, s *sample) error {
	if status != http.StatusOK {
		return fmt.Errorf("/v1/delta: HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	var mr server.MutationResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		return fmt.Errorf("decoding delta response: %w", err)
	}
	// One writer: every delta nets to a change, so it moves the epoch
	// by exactly one.
	r.writeEpoch++
	if mr.Asserted != req.WantAsserted || mr.Retracted != req.WantRetr || mr.Epoch != r.writeEpoch {
		return fmt.Errorf("delta acknowledged asserted=%d retracted=%d epoch=%d, want %d/%d/%d",
			mr.Asserted, mr.Retracted, mr.Epoch, req.WantAsserted, req.WantRetr, r.writeEpoch)
	}
	s.epoch = mr.Epoch
	if re := r.c.replica.db.FactEpoch(); re < mr.Epoch {
		s.ackLag = mr.Epoch - re
	}
	r.mu.Lock()
	r.userBytes += int64(len(req.Body))
	r.mu.Unlock()
	return nil
}

// replayRead re-runs the served request's layers from the harness, as
// child spans of the request: the server's JSON decode, the prepared
// run with and without answer rendering, and the JSON encode.
func (r *runner) replayRead(id uint64, req *request, body []byte, res *server.QueryResult) {
	if res.Stats != nil {
		r.tr.addRead(id, readStats{strategy: strategyClass(res.Stats.Strategy, req.Template),
			nodes: int64(res.Stats.Nodes), facts: res.Stats.FactsConsulted, lookups: res.Stats.Lookups, rows: len(res.Rows)})
	}
	t0 := time.Now()
	var qr server.QueryRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&qr)
	t1 := time.Now()
	r.tr.add(id, "server.decode", t0, t1)
	if err != nil {
		r.fail("replaying decode: %v", err)
		return
	}
	p := r.c.preps[req.Template]
	db := r.c.primary.db
	syms := make([]symtab.Sym, len(req.Args))
	for i, a := range req.Args {
		syms[i] = db.Intern(a)
	}
	t0 = time.Now()
	ans, err := p.RunCtx(context.Background(), req.Args...)
	t1 = time.Now()
	r.tr.add(id, "chainlog.run", t0, t1)
	if err != nil {
		r.fail("replaying run: %v", err)
		return
	}
	t0 = time.Now()
	err = p.RunSymsFunc(func([]symtab.Sym) {}, syms...)
	t1 = time.Now()
	r.tr.add(id, "chainlog.run_syms", t0, t1)
	if err != nil {
		r.fail("replaying RunSymsFunc: %v", err)
	}
	t0 = time.Now()
	out := server.QueryResult{Vars: ans.Vars, Rows: ans.Rows, True: ans.True, Stats: res.Stats}
	err = json.NewEncoder(io.Discard).Encode(server.QueryResponse{Result: &out})
	t1 = time.Now()
	r.tr.add(id, "server.encode", t0, t1)
	if err != nil {
		r.fail("replaying encode: %v", err)
	}
}

// replayDelta applies the acknowledged delta to the two shadow DBs.
func (r *runner) replayDelta(id uint64, req *request) {
	d := server.DeltaOfOps(walOps(req.Ops))
	t0 := time.Now()
	r.shadowBare.Apply(d)
	t1 := time.Now()
	r.shadowViews.Apply(d)
	t2 := time.Now()
	r.tr.add(id, "edb.apply_bare", t0, t1)
	r.tr.add(id, "ivm.apply_views", t1, t2)
}

func walOps(ops []server.DeltaOp) []wal.Op {
	out := make([]wal.Op, len(ops))
	for i, op := range ops {
		out[i] = wal.Op{Retract: op.Op == "retract", Pred: op.Pred, Args: op.Args}
	}
	return out
}

// strategyClass names the route a read ran: the chain strategy splits
// into the direct binary-chain route and the Section 4 route, which
// serves n-ary predicates and fully bound binary queries.
func strategyClass(strategy, template string) string {
	if strategy != "chain" {
		return strategy
	}
	if arity := strings.Count(template, ",") + 1; arity > 2 || !strings.ContainsAny(template, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		return "section4"
	}
	return "chain"
}

// openLoop sends the schedule at its fixed rate over ph.Conns
// connections and times each request from when it was due.
func (r *runner) openLoop(pi int, ph *phase) {
	type job struct {
		req *request
		due time.Time
		i   int
	}
	// Sized to the schedule so the generator never blocks on a slow
	// server: a backlog shows as latency from the due time.
	jobs := make(chan job, len(ph.Schedule))
	var wg sync.WaitGroup
	out := make([]sample, len(ph.Schedule))
	for w := 0; w < ph.Conns; w++ {
		c := newConn()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for j := range jobs {
				out[j.i] = r.exec(c, pi, j.req, j.due, r.tr != nil && j.i%2 == 1)
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / ph.Rate)
	cpu0 := cpuTime()
	start := time.Now().Add(10 * time.Millisecond)
	r.spans[pi] = phaseSpan{start: start, end: start.Add(time.Duration(len(ph.Schedule)) * interval)}
	late := make([]time.Duration, len(ph.Schedule))
	for i, req := range ph.Schedule {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		late[i] = time.Since(due)
		jobs <- job{req: req, due: due, i: i}
	}
	close(jobs)
	wg.Wait()
	r.spans[pi].cpu = cpuTime() - cpu0
	r.mu.Lock()
	r.samples = append(r.samples, out...)
	r.late = append(r.late, late...)
	r.mu.Unlock()
}

// sleepUntil blocks the calling thread in nanosleep: the runtime's
// timers wake up to a millisecond late, which would dominate the latency
// of sub-millisecond requests timed from their due time.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// closedLoop runs ph.Conns connections back to back for ph.Seconds.
func (r *runner) closedLoop(pi int, ph *phase) {
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(ph.Seconds * float64(time.Second)))
	r.spans[pi] = phaseSpan{start: start, end: deadline}
	// A phase that only feeds read_qps and read_cpu_us keeps counts, not
	// one record per request: the records of a saturated loop would grow
	// the heap the servers share and move their collections.
	keep := ph.Role&roleReads != 0
	outs := make([][]sample, ph.Conns)
	tallies := make([]tally, ph.Conns)
	for w := 0; w < ph.Conns; w++ {
		c := newConn()
		pool := ph.Pools[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			t := &tallies[w]
			for k := 0; time.Now().Before(deadline); k++ {
				s := r.exec(c, pi, pool[k%len(pool)], time.Now(), r.tr != nil && k%2 == 1)
				t.attempted++
				if s.failed {
					t.failed++
				} else if i := int(windows * time.Since(start).Seconds() / ph.Seconds); i < windows {
					t.done[i]++
				}
				if keep {
					outs[w] = append(outs[w], s)
				}
			}
		}()
	}
	wg.Wait()
	r.spans[pi].cpu = cpuTime() - cpu0
	r.mu.Lock()
	for w, o := range outs {
		r.samples = append(r.samples, o...)
		r.spans[pi].done.add(tallies[w])
	}
	if !keep {
		r.unrecorded.add(r.spans[pi].done)
	}
	r.mu.Unlock()
}

// tally counts a closed-loop phase's requests; done holds the reads
// completed in each window.
type tally struct {
	attempted, failed int
	done              [windows]int
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	for i := range t.done {
		t.done[i] += u.done[i]
	}
}

func (t *tally) completed() int {
	n := 0
	for _, d := range t.done {
		n += d
	}
	return n
}

// warm sends, untimed, the first request of each template and body kind
// whose answer holds before any delta, so the measured phases start with
// the plan caches filled, and a delta and its inverse, so the first
// measured write does not pay the one-time thaw of bulk-loaded relations
// on the primary and the replica.
func (r *runner) warm() {
	c := newConn()
	defer c.close()
	for _, op := range []string{"assert", "retract"} {
		body := mustJSON(server.DeltaRequest{Ops: []server.DeltaOp{{Op: op, Pred: "e", Args: []string{"warm0", "warm1"}}}})
		status, resp, err := c.post(r.c.primary.url+"/v1/delta", body, "")
		s := sample{phase: -1, write: true, failed: err != nil || status != http.StatusOK}
		if s.failed {
			r.fail("warm-up delta: HTTP %d, %v: %s", status, err, bytes.TrimSpace(resp))
		}
		r.mu.Lock()
		r.samples = append(r.samples, s)
		r.mu.Unlock()
	}
	seen := map[string]bool{}
	for _, ph := range r.ds.Phases {
		reqs := ph.Schedule
		for _, pool := range ph.Pools {
			reqs = append(reqs[:len(reqs):len(reqs)], pool...)
		}
		for _, req := range reqs {
			key := req.Template + strconv.FormatBool(req.Literal) + req.Class
			if req.Ops != nil || req.Class == "mutable" || seen[key] {
				continue
			}
			seen[key] = true
			s := r.exec(c, -1, req, time.Now(), false)
			r.mu.Lock()
			r.samples = append(r.samples, s)
			r.mu.Unlock()
		}
	}
}

// finalChecks runs after the traffic: the replica has caught up, the
// primary, the replica, the library views and the model agree on every
// view, and the watch stream folds to the primary's answer.
func (r *runner) finalChecks() []error {
	var errs []error
	p, rep := r.c.primary, r.c.replica
	head := p.db.FactEpoch()
	if err := waitEpoch(rep.db, head, 30*time.Second); err != nil {
		return []error{fmt.Errorf("replica catch-up: %w", err)}
	}
	deadline := time.Now().Add(30 * time.Second)
	for r.c.watch.arr.last() < head && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if last := r.c.watch.arr.last(); last < head {
		errs = append(errs, fmt.Errorf("watch stream stopped at epoch %d, primary at %d", last, head))
	}
	r.c.watch.mu.Lock()
	werr := r.c.watch.err
	r.c.watch.mu.Unlock()
	if werr != nil {
		errs = append(errs, fmt.Errorf("watch stream: %w", werr))
	}
	rp, err := rep.db.Prepare(tmplTC, chainlog.Options{})
	if err != nil {
		return append(errs, err)
	}
	for root, want := range r.ds.FinalViews {
		for name, prep := range map[string]*chainlog.Prepared{"primary": r.c.preps[tmplTC], "replica": rp} {
			ans, err := prep.Run(root)
			if err == nil {
				err = exactRows(want).check(ans.Rows)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("final tc(%s, Y) on the %s: %w", root, name, err))
			}
		}
	}
	for i, m := range r.c.views {
		rows, _ := m.Snapshot()
		if err := exactRows(r.ds.FinalViews[r.ds.Views[i]]).check(rows); err != nil {
			errs = append(errs, fmt.Errorf("library view tc(%s, Y): %w", r.ds.Views[i], err))
		}
	}
	if got, want := r.c.watch.folded(), r.ds.FinalViews[r.ds.WatchArg]; !slices.Equal(got, want) {
		errs = append(errs, fmt.Errorf("watch stream folds to %d rows, primary answers %d", len(got), len(want)))
	}
	return errs
}

// checkRecovery reopens the closed primary's WAL directory: every
// acknowledged epoch must replay, and snapshot plus replay must answer
// every view as the model does.
func checkRecovery(ds *dataset, dir string, acked []uint64) error {
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("reopening the WAL: %w", err)
	}
	defer l.Close()
	db := chainlog.NewDB()
	if err := db.LoadProgram(ds.Rules); err != nil {
		return err
	}
	path, snapEpoch, ok := l.Snapshot()
	if !ok {
		return errors.New("reopened WAL has no snapshot")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = db.RestoreFactsAuto(f, snapEpoch)
	f.Close()
	if err != nil {
		return fmt.Errorf("restoring %s: %w", path, err)
	}
	replayed := map[uint64]bool{}
	err = l.ReadFrom(snapEpoch, func(rec wal.Record) error {
		replayed[rec.Epoch] = true
		db.ApplyAt(server.DeltaOfOps(rec.Ops), rec.Epoch)
		return nil
	})
	if err != nil {
		return fmt.Errorf("replaying the WAL: %w", err)
	}
	for _, e := range acked {
		if e > snapEpoch && !replayed[e] {
			return fmt.Errorf("acknowledged epoch %d missing from the reopened WAL", e)
		}
	}
	p, err := db.Prepare(tmplTC, chainlog.Options{})
	if err != nil {
		return err
	}
	for root, want := range ds.FinalViews {
		ans, err := p.Run(root)
		if err == nil {
			err = exactRows(want).check(ans.Rows)
		}
		if err != nil {
			return fmt.Errorf("recovered tc(%s, Y): %w", root, err)
		}
	}
	return nil
}
