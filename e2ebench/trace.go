package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chainlog/internal/metrics"
)

// spanHeader carries a traced request's client span ID to the handler
// wrapper, so client and handler spans join on one request.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Parent is the request
// (client span) that caused it; replayed calls and the handler span are
// children of the client span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
	// reads holds the "stats": true fields of traced reads, keyed by
	// client span ID.
	reads map[uint64]readStats
}

type readStats struct {
	strategy              string
	nodes, facts, lookups int64
	rows                  int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), reads: map[uint64]readStats{}}
}

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) add(parent uint64, name string, start, end time.Time) uint64 {
	id := t.newID()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// addRoot records a client span under a preassigned ID.
func (t *tracer) addRoot(id uint64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) addRead(id uint64, rs readStats) {
	t.mu.Lock()
	t.reads[id] = rs
	t.mu.Unlock()
}

// wrap times the server's handler for requests that carry a span ID.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(spanHeader)
		if hdr == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		parent, _ := strconv.ParseUint(hdr, 10, 64)
		t.add(parent, "server.handler", start, end)
	})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRequest is a client span with its children's durations by name.
type tracedRequest struct {
	client   span
	children map[string]time.Duration
}

// byRequest joins every client span with the spans it caused.
func (t *tracer) byRequest() map[uint64]*tracedRequest {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[uint64]*tracedRequest{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			out[s.ID] = &tracedRequest{client: s, children: map[string]time.Duration{}}
		}
	}
	for _, s := range t.spans {
		if r := out[s.Parent]; s.Parent != 0 && r != nil {
			r.children[s.Name] += s.dur()
		}
	}
	return out
}

// scrape reads a server's metrics registry as name{labels} → value.
func scrape(reg *metrics.Registry) map[string]float64 {
	var buf bytes.Buffer
	_ = reg.WriteText(&buf) // writes to a bytes.Buffer do not fail
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
