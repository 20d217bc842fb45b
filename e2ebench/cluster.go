package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"chainlog"
	"chainlog/internal/server"
	"chainlog/internal/wal"
)

// node is one served chainlogd instance: a DB, its WAL and the
// production server on a real loopback listener.
type node struct {
	db   *chainlog.DB
	log  *wal.Log
	dir  string
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve returns
	stop context.CancelFunc
}

// serve mounts the server's handler (wrapped when tracing) on a fresh
// 127.0.0.1 listener, with the timeouts chainlogd's ListenAndServe uses.
func (n *node) serve(wrap func(http.Handler) http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{
		Handler:           wrap(n.srv.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          log.New(io.Discard, "", 0),
	}
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return nil
}

// shutdown drains the node the way chainlogd does on SIGTERM and closes
// its WAL.
func (n *node) shutdown() error {
	var errs []error
	if n.srv != nil && n.hs != nil {
		n.srv.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		errs = append(errs, n.hs.Shutdown(ctx))
		cancel()
		<-n.done
	}
	if n.stop != nil {
		n.stop()
	}
	if n.log != nil {
		errs = append(errs, n.log.Close())
	}
	return errors.Join(errs...)
}

// cluster is a primary, its replica and the harness's handles on them.
type cluster struct {
	primary, replica *node
	preps            map[string]*chainlog.Prepared // harness handles on the primary
	views            []*chainlog.Materialized      // library views on the primary
	watch            *watcher                      // /v1/watch stream on the replica
	visible          *visibility                   // traced runs: a library view on the replica DB
	setup            setupTimes
}

type setupTimes struct {
	total, load, compile, bootstrap time.Duration
}

// templatesOf lists the distinct templates a dataset sends.
func templatesOf(ds *dataset) []string {
	seen := map[string]bool{tmplTC: true}
	out := []string{tmplTC}
	visit := func(r *request) {
		if r.Template != "" && !seen[r.Template] {
			seen[r.Template] = true
			out = append(out, r.Template)
		}
	}
	visit(ds.First)
	for _, ph := range ds.Phases {
		for _, r := range ph.Schedule {
			visit(r)
		}
		for _, pool := range ph.Pools {
			for _, r := range pool {
				visit(r)
			}
		}
	}
	return out
}

// boot brings a cluster from nothing to its first correct answer: load
// the program into the primary, prepare the templates and library views,
// open a WAL with fsync=always and a snapshot of the loaded state, serve
// it, boot a replica with the rules only and let it bootstrap from the
// primary's snapshot, open the replica watch, and check one read.
func boot(ds *dataset, dir string, tr *tracer, hc *conn) (*cluster, error) {
	c := &cluster{preps: map[string]*chainlog.Prepared{}}
	wrap := func(h http.Handler) http.Handler { return h }
	if tr != nil {
		wrap = tr.wrap
	}
	t0 := time.Now()
	p := &node{db: chainlog.NewDB(), dir: filepath.Join(dir, "primary")}
	c.primary = p
	if err := loadDataset(p.db, ds); err != nil {
		return c, fmt.Errorf("primary: %w", err)
	}
	t1 := time.Now()
	for _, tmpl := range templatesOf(ds) {
		prep, err := p.db.Prepare(tmpl, chainlog.Options{})
		if err != nil {
			return c, fmt.Errorf("prepare %s: %w", tmpl, err)
		}
		c.preps[tmpl] = prep
	}
	for _, root := range ds.Views {
		m, err := c.preps[tmplTC].Materialize(root)
		if err != nil {
			return c, fmt.Errorf("materialize tc(%s, Y): %w", root, err)
		}
		c.views = append(c.views, m)
	}
	t2 := time.Now()
	var err error
	if p.log, err = wal.Open(wal.Options{Dir: p.dir, Sync: wal.SyncAlways}); err != nil {
		return c, err
	}
	if _, err := p.log.WriteSnapshot(func(w io.Writer) (uint64, error) { return p.db.SnapshotFacts(w, nil) }); err != nil {
		return c, fmt.Errorf("primary snapshot: %w", err)
	}
	if p.srv, err = server.New(server.Config{DB: p.db, WAL: p.log}); err != nil {
		return c, err
	}
	if err := p.serve(wrap); err != nil {
		return c, err
	}
	t3 := time.Now()
	r := &node{db: chainlog.NewDB(), dir: filepath.Join(dir, "replica")}
	c.replica = r
	if err := r.db.LoadProgram(ds.Rules); err != nil {
		return c, fmt.Errorf("replica LoadProgram: %w", err)
	}
	if r.log, err = wal.Open(wal.Options{Dir: r.dir, Sync: wal.SyncAlways}); err != nil {
		return c, err
	}
	if r.srv, err = server.New(server.Config{DB: r.db, WAL: r.log, Role: server.RoleReplica, PrimaryURL: p.url}); err != nil {
		return c, err
	}
	if err := r.serve(wrap); err != nil {
		return c, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.stop = cancel
	r.srv.StartReplication(ctx)
	if err := waitEpoch(r.db, p.db.FactEpoch(), 60*time.Second); err != nil {
		return c, fmt.Errorf("replica bootstrap: %w", err)
	}
	t4 := time.Now()
	if tr != nil {
		if c.visible, err = watchVisibility(r.db, ds.WatchArg); err != nil {
			return c, err
		}
	}
	if c.watch, err = startWatch(r.url, tmplTC, ds.WatchArg); err != nil {
		return c, err
	}
	status, body, err := hc.post(p.url+ds.First.Path, ds.First.Body, "")
	if err == nil {
		err = checkRead(ds.First, status, body, nil)
	}
	if err != nil {
		return c, fmt.Errorf("first answer: %w", err)
	}
	t5 := time.Now()
	c.setup = setupTimes{total: t5.Sub(t0), load: t1.Sub(t0), compile: t2.Sub(t1), bootstrap: t4.Sub(t3)}
	return c, nil
}

// loadDataset loads the rules, then the facts, the way chainlogd loads
// -program and -facts: the fact load moves the fact epoch to 1, so the
// snapshot taken of it is where replicas bootstrap from.
func loadDataset(db *chainlog.DB, ds *dataset) error {
	if err := db.LoadProgram(ds.Rules); err != nil {
		return fmt.Errorf("loading rules: %w", err)
	}
	if err := db.LoadProgram(ds.Facts); err != nil {
		return fmt.Errorf("loading facts: %w", err)
	}
	return nil
}

// close stops the watch stream, stops the replica's tailer (through
// /v1/promote, which returns once the tailer has exited), drains both
// servers and closes their WALs.
func (c *cluster) close(hc *conn) error {
	var errs []error
	if c.watch != nil {
		c.watch.stop()
	}
	if c.visible != nil {
		c.visible.stop()
	}
	for _, m := range c.views {
		m.Close()
	}
	if r := c.replica; r != nil {
		if r.hs != nil {
			if status, _, err := hc.post(r.url+"/v1/promote", nil, ""); err != nil || status != http.StatusOK {
				errs = append(errs, fmt.Errorf("stopping the replica tailer: status %d, %v", status, err))
			}
		}
		errs = append(errs, r.shutdown())
	}
	if c.primary != nil {
		errs = append(errs, c.primary.shutdown())
	}
	return errors.Join(errs...)
}

func waitEpoch(db *chainlog.DB, epoch uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for db.FactEpoch() < epoch {
		if time.Now().After(deadline) {
			return fmt.Errorf("epoch %d not reached within %s (at %d)", epoch, limit, db.FactEpoch())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// arrivals records, in epoch order, when each epoch was first seen.
type arrivals struct {
	mu     sync.Mutex
	epochs []uint64
	at     []time.Time
}

func (a *arrivals) record(epoch uint64, t time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.epochs); n == 0 || epoch > a.epochs[n-1] {
		a.epochs = append(a.epochs, epoch)
		a.at = append(a.at, t)
	}
}

// when reports the first time an epoch at or past e was seen.
func (a *arrivals) when(e uint64) (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := sort.Search(len(a.epochs), func(i int) bool { return a.epochs[i] >= e })
	if i == len(a.epochs) {
		return time.Time{}, false
	}
	return a.at[i], true
}

func (a *arrivals) last() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.epochs) == 0 {
		return 0
	}
	return a.epochs[len(a.epochs)-1]
}

// watcher holds one /v1/watch stream, folds it into an answer set, and
// records when each epoch's delta line arrived. It reconnects with its
// cursor when the server ends a long-poll window.
type watcher struct {
	url    string
	cancel context.CancelFunc
	done   chan struct{}
	arr    arrivals

	mu         sync.Mutex
	rows       map[string]bool
	resets     int
	reconnects int
	err        error
}

func startWatch(base, template, arg string) (*watcher, error) {
	q := url.Values{"template": {template}, "arg": {arg}}
	ctx, cancel := context.WithCancel(context.Background())
	w := &watcher{url: base + "/v1/watch?" + q.Encode(), cancel: cancel, done: make(chan struct{}), rows: map[string]bool{}}
	ready := make(chan struct{})
	go func() {
		defer close(w.done)
		w.run(ctx, ready)
	}()
	select {
	case <-ready:
		return w, nil
	case <-w.done:
		return nil, fmt.Errorf("watch stream: %v", w.err)
	case <-time.After(30 * time.Second):
		w.stop()
		return nil, errors.New("watch stream: no reset line within 30s")
	}
}

func (w *watcher) run(ctx context.Context, ready chan struct{}) {
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	var from, gen uint64
	for ctx.Err() == nil {
		u := w.url
		if gen != 0 {
			u += "&from=" + strconv.FormatUint(from, 10) + "&gen=" + strconv.FormatUint(gen, 10)
			w.mu.Lock()
			w.reconnects++
			w.mu.Unlock()
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		resp, err := client.Do(req)
		if err != nil {
			w.fail(ctx, err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			w.fail(ctx, fmt.Errorf("HTTP %d", resp.StatusCode))
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 64<<20)
		for sc.Scan() {
			now := time.Now()
			var line server.WatchLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				resp.Body.Close()
				w.fail(ctx, err)
				return
			}
			w.mu.Lock()
			switch {
			case line.Reset:
				if gen != 0 {
					w.resets++
				}
				clear(w.rows)
				for _, r := range line.Rows {
					w.rows[r[0]] = true
				}
				from, gen = line.Epoch, line.Gen
				w.arr.record(line.Epoch, now)
				if ready != nil {
					close(ready)
					ready = nil
				}
			case line.Epoch != 0:
				for _, r := range line.Removed {
					delete(w.rows, r[0])
				}
				for _, r := range line.Added {
					w.rows[r[0]] = true
				}
				from = line.Epoch
				w.arr.record(line.Epoch, now)
			default:
				from, gen = line.Head, line.Gen
			}
			w.mu.Unlock()
		}
		resp.Body.Close()
	}
}

func (w *watcher) fail(ctx context.Context, err error) {
	if ctx.Err() != nil {
		return
	}
	w.mu.Lock()
	w.err = err
	w.mu.Unlock()
}

func (w *watcher) stop() {
	w.cancel()
	<-w.done
}

// folded returns the answer the stream has folded to, sorted.
func (w *watcher) folded() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.rows))
	for r := range w.rows {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// visibility is a library view on the replica DB: it records when each
// replicated epoch became visible to a view, before any watch delivery.
type visibility struct {
	view *chainlog.Materialized
	arr  arrivals
	quit chan struct{}
	done chan struct{}
}

func watchVisibility(db *chainlog.DB, arg string) (*visibility, error) {
	p, err := db.Prepare(tmplTC, chainlog.Options{})
	if err != nil {
		return nil, err
	}
	m, err := p.Materialize(arg)
	if err != nil {
		return nil, err
	}
	v := &visibility{view: m, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(v.done)
		for {
			ch := m.Updates()
			v.arr.record(m.Epoch(), time.Now())
			select {
			case <-ch:
			case <-v.quit:
				return
			}
		}
	}()
	return v, nil
}

func (v *visibility) stop() {
	close(v.quit)
	<-v.done
	v.view.Close()
}

// walSegmentBytes sums the sizes of a WAL directory's log segments.
func walSegmentBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
