package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// traceWindow is the length of the alternating traced and untraced
// windows of a traced run. Both modes see the same cache state and the
// same noise, so their throughput difference is the tracing overhead.
const traceWindow = 250 * time.Millisecond

// span is one recorded interval. Spans of one request share Req; a span
// that serves no single request (a shared scan, a call on a server
// goroutine) has Req 0. Timer is "program" when the duration comes from
// the program's own timer rather than the benchmark's clock; such a span
// is placed to end with its parent.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Timer  string `json:"timer,omitempty"`
}

// rawCall is one timed call into a raw-file provider.
type rawCall struct {
	layer, kind      string
	start, end       time.Time
	self             time.Duration
	records, skipped int64
	bytes            int64
	unshared         bool
}

// rawTotals accumulates one raw-file layer over the traced windows.
type rawTotals struct {
	self    time.Duration
	bytes   int64
	records int64
	skipped int64
}

// tracer keeps spans in memory for the traced windows of a run and writes
// them out at the end. A nil *tracer records nothing.
type tracer struct {
	t0 time.Time
	on atomic.Bool // set while the measured loop runs

	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	raw     map[string]*rawTotals
	refresh time.Duration

	// byG ties a client goroutine to the request it is running, so a raw
	// scan on that goroutine can name its request. Only in-process
	// workloads scan on client goroutines (tie); set before on.
	tie bool
	gmu sync.Mutex
	byG map[uint64]uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), raw: map[string]*rawTotals{}, byG: map[uint64]uint64{}}
}

// active reports whether the loop runs and the current window is a
// traced one.
func (t *tracer) active() bool {
	return t != nil && t.on.Load() && t.tracedAt(time.Now())
}

func (t *tracer) tracedAt(now time.Time) bool {
	return (now.Sub(t.t0)/traceWindow)%2 == 1
}

// split divides [from, to) into the time spent in untraced and in traced
// windows.
func (t *tracer) split(from, to time.Time) (untraced, traced time.Duration) {
	for at := from; at.Before(to); {
		end := t.t0.Add((at.Sub(t.t0)/traceWindow + 1) * traceWindow)
		if end.After(to) {
			end = to
		}
		if t.tracedAt(at) {
			traced += end.Sub(at)
		} else {
			untraced += end.Sub(at)
		}
		at = end
	}
	return untraced, traced
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// begin opens a request on the calling client goroutine.
func (t *tracer) begin() uint64 {
	id := t.nextID.Add(1)
	if t.tie {
		t.gmu.Lock()
		t.byG[goid()] = id
		t.gmu.Unlock()
	}
	return id
}

// end closes a request and records its span and its "exec" child, whose
// duration is the execution time the program reported.
func (t *tracer) end(req uint64, start, end time.Time, exec time.Duration) {
	if t.tie {
		t.gmu.Lock()
		delete(t.byG, goid())
		t.gmu.Unlock()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans,
		span{Req: req, ID: req, Name: "request", Start: t.ns(start), End: t.ns(end)},
		span{
			Req: req, ID: t.nextID.Add(1), Parent: req, Name: "exec",
			Start: t.ns(end) - exec.Nanoseconds(), End: t.ns(end), Timer: "program",
		})
}

func (t *tracer) rawSpan(c rawCall) {
	var req uint64
	if c.unshared && t.tie {
		t.gmu.Lock()
		req = t.byG[goid()]
		t.gmu.Unlock()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Req: req, ID: t.nextID.Add(1), Parent: req, Name: c.layer + "." + c.kind,
		Start: t.ns(c.start), End: t.ns(c.end),
	})
	tot := t.raw[c.layer]
	if tot == nil {
		tot = &rawTotals{}
		t.raw[c.layer] = tot
	}
	tot.self += c.self
	tot.bytes += c.bytes
	tot.records += c.records
	tot.skipped += c.skipped
}

func (t *tracer) refreshSpan(start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: t.nextID.Add(1), Name: "freshness.refresh", Start: t.ns(start), End: t.ns(end)})
	t.refresh += end.Sub(start)
}

func (t *tracer) rawTotals(layer string) rawTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.raw[layer]; tot != nil {
		return *tot
	}
	return rawTotals{}
}

func (t *tracer) refreshTotal() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.refresh
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's id, parsed from the header of its
// stack trace ("goroutine 17 [running]:"). Only traced calls pay for it.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
