package main

import (
	"reflect"
	"runtime"
	"strings"
	"time"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/value"
)

// rawProvider is every interface the engine probes a csvio or jsonio
// provider for. The wrapper must implement all of them, or wrapping would
// switch off freshness, epoch pinning or pushdown.
type rawProvider interface {
	plan.ScanProvider
	plan.RefreshableProvider
	plan.EpochScanner
	plan.PushdownScanner
	Scans() int64
	PushdownStats() (scans, skipped int64)
}

// tracedProvider wraps a raw-file provider and, while the tracer records,
// times each call into it. A scan's span covers the consumer's record
// callbacks too (scans push records), so the callback time is measured and
// subtracted: what is left is the provider's own tokenize and parse time.
// With tracing off every method is a plain delegation.
type tracedProvider struct {
	inner rawProvider
	layer string // "csvio" or "jsonio"
	tr    *tracer
}

func (p *tracedProvider) Schema() *value.Type                   { return p.inner.Schema() }
func (p *tracedProvider) NumRecords() int                       { return p.inner.NumRecords() }
func (p *tracedProvider) SizeBytes() int64                      { return p.inner.SizeBytes() }
func (p *tracedProvider) Version() (uint64, int64)              { return p.inner.Version() }
func (p *tracedProvider) Scans() int64                          { return p.inner.Scans() }
func (p *tracedProvider) PushdownStats() (scans, skipped int64) { return p.inner.PushdownStats() }

func (p *tracedProvider) Scan(needed []value.Path, fn plan.ScanFunc) error {
	_, err := p.observe("scan", fn, p.inner.SizeBytes, func(fn plan.ScanFunc) (int64, error) {
		return 0, p.inner.Scan(needed, fn)
	})
	return err
}

func (p *tracedProvider) ScanPushdown(pd *expr.Pushdown, needed []value.Path, fn plan.ScanFunc) (int64, error) {
	return p.observe("scan", fn, p.inner.SizeBytes, func(fn plan.ScanFunc) (int64, error) {
		return p.inner.ScanPushdown(pd, needed, fn)
	})
}

func (p *tracedProvider) ScanOffsets(offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
	_, err := p.observe("offsets", fn, p.offsetBytes(len(offsets)), func(fn plan.ScanFunc) (int64, error) {
		return 0, p.inner.ScanOffsets(offsets, needed, fn)
	})
	return err
}

func (p *tracedProvider) ScanOffsetsAt(epoch uint64, offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
	_, err := p.observe("offsets", fn, p.offsetBytes(len(offsets)), func(fn plan.ScanFunc) (int64, error) {
		return 0, p.inner.ScanOffsetsAt(epoch, offsets, needed, fn)
	})
	return err
}

func (p *tracedProvider) ScanFrom(from int64, needed []value.Path, fn plan.ScanFunc) error {
	tail := func() int64 { return p.inner.SizeBytes() - from }
	_, err := p.observe("tail", fn, tail, func(fn plan.ScanFunc) (int64, error) {
		return 0, p.inner.ScanFrom(from, needed, fn)
	})
	return err
}

// Refresh is the freshness layer's call into the provider: a stat, and on
// an append a parse of the new tail.
func (p *tracedProvider) Refresh() (plan.FreshnessReport, error) {
	if !p.tr.active() {
		return p.inner.Refresh()
	}
	start := time.Now()
	rep, err := p.inner.Refresh()
	p.tr.refreshSpan(start, time.Now())
	return rep, err
}

// offsetBytes estimates the raw bytes a positional lookup of n records
// touches: n average-sized records.
func (p *tracedProvider) offsetBytes(n int) func() int64 {
	return func() int64 {
		recs := p.inner.NumRecords()
		if recs <= 0 {
			return 0
		}
		return p.inner.SizeBytes() * int64(n) / int64(recs)
	}
}

func (p *tracedProvider) observe(kind string, fn plan.ScanFunc, bytes func() int64, body func(plan.ScanFunc) (int64, error)) (int64, error) {
	if !p.tr.active() {
		return body(fn)
	}
	var inCallback time.Duration
	var records int64
	counted := func(rec value.Value, off int64, complete func() error) error {
		records++
		t := time.Now()
		err := fn(rec, off, complete)
		inCallback += time.Since(t)
		return err
	}
	start := time.Now()
	skipped, err := body(counted)
	end := time.Now()
	p.tr.rawSpan(rawCall{
		layer:    p.layer,
		kind:     kind,
		start:    start,
		end:      end,
		self:     end.Sub(start) - inCallback,
		records:  records,
		skipped:  skipped,
		bytes:    bytes(),
		unshared: !sharedCycle(fn),
	})
	return skipped, err
}

// sharedCycle reports whether fn is the shared-scan coordinator's fan-out
// callback. Such a scan serves several queries at once, so it cannot be
// charged to the request whose goroutine happens to lead it.
func sharedCycle(fn plan.ScanFunc) bool {
	f := runtime.FuncForPC(reflect.ValueOf(fn).Pointer())
	return f != nil && strings.Contains(f.Name(), "share.runCycle")
}
