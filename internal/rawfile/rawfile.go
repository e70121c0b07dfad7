// Package rawfile is the format-independent core under the raw-data input
// plugins (internal/csvio, internal/jsonio): a Proteus-style access path
// over a text file of newline-separated records. The first scan of a file
// tokenizes every record and builds a positional map — the byte offset of
// each record and of each top-level field within it (the "skeleton" of the
// file, §3.1 of the paper). Later scans use the map to jump straight to the
// needed fields and parse nothing else, lazy caches replay just the
// satisfying records through ScanOffsets, and an appended tail is mapped
// onto the same skeleton without re-reading the covered prefix.
//
// Provider owns everything that does not depend on the format: the
// immutable snapshots and their freshness bookkeeping, positional-map
// publication, needed-field masks, absent-field normalization, and the
// plain, pushdown, offset and tail scan drivers. A format plugs in through
// the five Format hooks, each called once per record or per field, never
// per byte.
package rawfile

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"recache/internal/expr"
	"recache/internal/freshness"
	"recache/internal/plan"
	"recache/internal/value"
)

// AbsentOff marks a top-level field with no value in a record.
const AbsentOff = ^uint32(0)

// Format is what a raw-file format supplies to the shared Provider. Field
// indexes are positions in the provider's record schema; offsets are byte
// positions in data, the snapshot's ingested bytes.
type Format interface {
	// Skip returns where the first record at or after from starts
	// (from is in [0, len(data)]). Every record walk starts there, so a
	// format's preamble — a CSV header line, JSON whitespace — is never
	// served as a record.
	Skip(data []byte, from int) int
	// Record maps the record starting at start: it writes each top-level
	// field's value offset relative to start into offs (AbsentOff when the
	// record has none), materializes the fields mask selects (all for a
	// nil mask) into row in the same pass, sets the others to VNull, and
	// returns the offset just past the record. A nil row maps only.
	Record(data []byte, start int, mask []bool, row []value.Value, offs []uint32) (int, error)
	// Field decodes field fi whose value starts at beg into dst. Writing
	// in place rather than returning the value keeps the mapped decode
	// loop one call deep per field.
	Field(data []byte, fi, beg int, dst *value.Value) error
	// Test decodes the field whose value starts at beg as t's column kind
	// and evaluates the fused kernel. A null fails the test; a malformed
	// value raises the decode error Field would (the driver names the
	// field).
	Test(data []byte, t *expr.ColTest, beg int) (bool, error)
	// Needles returns the candidate cursors for pd's string-equality
	// literal, or nil when it has none. A record that none of them hits
	// before its end cannot pass the pushdown.
	Needles(data []byte, pd *expr.Pushdown) []*expr.NeedleCursor
}

// snapshot is one immutable view of the file: its ingested bytes, the
// positional map built over them, the epoch those byte offsets belong to,
// and the fingerprint that detects divergence from disk. Snapshots are
// published through an atomic pointer and never mutated after publication,
// with one deliberate exception: an append-extension may grow the data /
// recStart / fieldOff backing arrays *beyond the published lengths* in
// place. Readers slice by the lengths captured in their own snapshot, so
// writes past those lengths are invisible to them — the classic
// append-only-log trick, giving lock-free readers across extensions.
type snapshot struct {
	data     []byte
	recStart []int64
	fieldOff []uint32 // nrecs × nfields, offsets relative to recStart
	mapped   bool     // recStart/fieldOff are populated
	loaded   bool     // data was read from disk (false after a rewrite reset)
	epoch    uint64   // bumps on every rewrite; byte offsets are per-epoch
	fp       freshness.Fingerprint
}

// Provider implements plan.ScanProvider, plan.PushdownScanner,
// plan.RefreshableProvider and plan.EpochScanner for one raw file.
//
// Providers are safe for concurrent scans: all shared state lives in an
// immutable snapshot behind an atomic pointer; p.mu serializes the writers
// (initial load, positional-map publication, Refresh). Concurrent first
// scans each tokenize independently (the per-scan row buffers are local);
// the first to finish publishes the map.
type Provider struct {
	name    string // error prefix: the format package's name
	path    string
	schema  *value.Type
	f       Format
	nfields int
	size    atomic.Int64

	mu   sync.Mutex // serializes snapshot replacement (load, map, refresh)
	snap atomic.Pointer[snapshot]

	// scans counts full-file Scan calls (not ScanOffsets replays or tail
	// scans); the work-sharing bench and tests use it to assert how many
	// raw parses a burst of concurrent misses actually paid for. pushScans
	// counts the subset that evaluated a pushdown below parsing, and
	// pushSkipped the records those scans rejected before decoding
	// anything else.
	scans       atomic.Int64
	pushScans   atomic.Int64
	pushSkipped atomic.Int64
}

// New creates a provider over path for a record schema the format has
// already validated; name prefixes its errors.
func New(name, path string, schema *value.Type, f Format) (*Provider, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &Provider{name: name, path: path, schema: schema, f: f, nfields: len(schema.Fields)}
	p.size.Store(st.Size())
	return p, nil
}

// Schema implements plan.ScanProvider.
func (p *Provider) Schema() *value.Type { return p.schema }

// NumRecords implements plan.ScanProvider: -1 before the first scan.
func (p *Provider) NumRecords() int {
	s := p.snap.Load()
	if s == nil || !s.mapped {
		return -1
	}
	return len(s.recStart)
}

// SizeBytes implements plan.ScanProvider.
func (p *Provider) SizeBytes() int64 { return p.size.Load() }

// Scans returns the number of full-file scans performed so far.
func (p *Provider) Scans() int64 { return p.scans.Load() }

// PushdownStats reports how many full-file scans evaluated a pushdown below
// parsing and how many records those scans skipped before full decode.
func (p *Provider) PushdownStats() (scans, skipped int64) {
	return p.pushScans.Load(), p.pushSkipped.Load()
}

// ensureLoaded publishes the file contents exactly once per epoch
// (double-checked) and returns the current snapshot.
func (p *Provider) ensureLoaded() (*snapshot, error) {
	if s := p.snap.Load(); s != nil && s.loaded {
		return s, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.snap.Load(); s != nil && s.loaded {
		return s, nil
	}
	st, err := os.Stat(p.path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	b, err := os.ReadFile(p.path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	epoch := uint64(1)
	if s := p.snap.Load(); s != nil {
		epoch = s.epoch
	}
	ns := &snapshot{
		data:   b,
		loaded: true,
		epoch:  epoch,
		fp:     freshness.Capture(b, st.ModTime().UnixNano()),
	}
	p.size.Store(int64(len(b)))
	p.snap.Store(ns)
	return ns, nil
}

// Version implements plan.RefreshableProvider: the current (epoch, covered
// bytes), loading the file first if needed. On a load failure it reports
// zero coverage under the current epoch — any scan would fail the same way,
// so nothing is built against the bogus version.
func (p *Provider) Version() (uint64, int64) {
	s, err := p.ensureLoaded()
	if err != nil {
		if s := p.snap.Load(); s != nil {
			return s.epoch, 0
		}
		return 0, 0
	}
	return s.epoch, int64(len(s.data))
}

// Refresh implements plan.RefreshableProvider: re-check the backing file
// against the snapshot's fingerprint and reconcile. Appends extend the
// snapshot in place (same epoch); rewrites reset the provider to an
// unloaded snapshot under a new epoch, so the next scan reloads lazily.
func (p *Provider) Refresh() (plan.FreshnessReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.snap.Load()
	if s == nil || !s.loaded {
		var ep uint64
		if s != nil {
			ep = s.epoch
		}
		return plan.FreshnessReport{Status: plan.FileUnchanged, Epoch: ep}, nil
	}
	status, _ := s.fp.Check(p.path)
	switch status {
	case freshness.Unchanged:
		return plan.FreshnessReport{Status: plan.FileUnchanged, Epoch: s.epoch, Covered: int64(len(s.data))}, nil
	case freshness.Appended:
		return p.extendLocked(s), nil
	default:
		return p.resetLocked(s), nil
	}
}

// resetLocked replaces the snapshot with an unloaded one under a new epoch.
func (p *Provider) resetLocked(s *snapshot) plan.FreshnessReport {
	ns := &snapshot{epoch: s.epoch + 1}
	p.snap.Store(ns)
	if st, err := os.Stat(p.path); err == nil {
		p.size.Store(st.Size())
	}
	return plan.FreshnessReport{Status: plan.FileRewritten, Epoch: ns.epoch}
}

// extendLocked grows the snapshot over the file's new tail: read only the
// bytes past the covered prefix, trim at the last newline (a torn trailing
// record stays uncovered until it completes), map the new complete records
// onto the positional map, and publish a longer snapshot under the same
// epoch. Falls back to a rewrite reset whenever the extension cannot be
// proven equivalent to a fresh full scan.
func (p *Provider) extendLocked(s *snapshot) plan.FreshnessReport {
	old := len(s.data)
	if old > 0 && s.data[old-1] != '\n' {
		// The covered prefix ends mid-record: new bytes change the meaning
		// of the last record already served, which no in-place extension
		// can express.
		return p.resetLocked(s)
	}
	f, err := os.Open(p.path)
	if err != nil {
		return p.resetLocked(s)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return p.resetLocked(s)
	}
	sz := st.Size()
	if sz < int64(old) {
		return p.resetLocked(s)
	}
	unchanged := plan.FreshnessReport{Status: plan.FileUnchanged, Epoch: s.epoch, Covered: int64(old)}
	if sz == int64(old) {
		return unchanged
	}
	tail := make([]byte, sz-int64(old))
	if _, err := f.ReadAt(tail, int64(old)); err != nil {
		return p.resetLocked(s)
	}
	cut := bytes.LastIndexByte(tail, '\n')
	if cut < 0 {
		// The appended bytes hold no complete record yet.
		return unchanged
	}
	tail = tail[:cut+1]

	// Appending may write into spare capacity past the published lengths
	// (invisible to snapshot readers) or reallocate; both are safe.
	data := append(s.data, tail...)
	ns := &snapshot{
		data:   data,
		loaded: true,
		epoch:  s.epoch,
		fp:     freshness.Capture(data, st.ModTime().UnixNano()),
	}
	if s.mapped {
		// Map offsets only, materializing nothing. The walk starts at
		// Skip(old), exactly where a fresh full scan's next record would.
		c := &cursor{p: p, data: data}
		recStart, fieldOff, err := c.walk(old, nil, s.recStart, s.fieldOff, nil)
		if err != nil {
			// Malformed appended record: the extension would poison the
			// map, so invalidate wholesale instead.
			return p.resetLocked(s)
		}
		ns.recStart, ns.fieldOff, ns.mapped = recStart, fieldOff, true
	}
	p.size.Store(sz)
	p.snap.Store(ns)
	return plan.FreshnessReport{
		Status:    plan.FileAppended,
		Epoch:     ns.epoch,
		Covered:   int64(len(data)),
		TailBytes: int64(len(tail)),
	}
}

// publishMap installs a positional map built against snapshot s. Under
// concurrent first scans the first finisher wins; if the snapshot moved on
// (refresh, rewrite) while this scan ran, its map describes stale bytes
// and is discarded.
func (p *Provider) publishMap(s *snapshot, recStart []int64, fieldOff []uint32) {
	p.mu.Lock()
	if p.snap.Load() == s && !s.mapped {
		ns := *s
		ns.recStart, ns.fieldOff, ns.mapped = recStart, fieldOff, true
		p.snap.Store(&ns)
	}
	p.mu.Unlock()
}

// prepare loads the file and resolves the needed paths to a field mask.
func (p *Provider) prepare(needed []value.Path) (*snapshot, []bool, error) {
	s, err := p.ensureLoaded()
	if err != nil {
		return nil, nil, err
	}
	mask, err := p.neededMask(needed)
	return s, mask, err
}

// neededMask marks the top-level fields covering the needed paths; nil
// means all fields.
func (p *Provider) neededMask(needed []value.Path) ([]bool, error) {
	if needed == nil {
		return nil, nil
	}
	mask := make([]bool, p.nfields)
	for _, np := range needed {
		if len(np) == 0 {
			continue
		}
		i, _ := p.schema.FieldIndex(np[0])
		if i < 0 {
			// Dotted flat name (post-unnest reference): match it whole.
			i, _ = p.schema.FieldIndex(np.String())
			if i < 0 {
				return nil, fmt.Errorf("%s: unknown field %q", p.name, np)
			}
		}
		mask[i] = true
	}
	return mask, nil
}

// effectiveMask unions the tested columns into the needed mask: survivors
// have their tested fields materialized too (they are decoded regardless),
// and complete() then parses exactly the complement. A nil mask (all
// fields) stays nil.
func effectiveMask(mask []bool, tests []expr.ColTest) []bool {
	if mask == nil {
		return nil
	}
	eff := append([]bool(nil), mask...)
	for i := range tests {
		if s := tests[i].Slot; s < len(eff) {
			eff[s] = true
		}
	}
	return eff
}

// NullFor returns the normalized null value for a type: records become
// records of nulls, lists become empty lists, leaves become VNull. Absent
// fields and null literals both decode to it, so every emitted record is
// fully shaped by the schema.
func NullFor(t *value.Type) value.Value {
	switch t.Kind {
	case value.Record:
		fields := make([]value.Value, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = NullFor(f.Type)
		}
		return value.VRecord(fields...)
	case value.List:
		return value.VList()
	default:
		return value.VNull
	}
}

// noComplete is the completion callback for already-complete records.
func noComplete() error { return nil }

// cursor is one scan's state: the bytes it reads, the fields it
// materializes (nil for all), the row every record is decoded into, and
// the consumer.
type cursor struct {
	p    *Provider
	data []byte
	mask []bool
	row  []value.Value
	fn   plan.ScanFunc
}

func (p *Provider) newCursor(data []byte, mask []bool, fn plan.ScanFunc) *cursor {
	return &cursor{p: p, data: data, mask: mask, row: make([]value.Value, p.nfields), fn: fn}
}

// decode fills the row from a record's field offsets. Without rest it
// materializes the masked fields and nulls the others; with rest it
// materializes exactly the fields the mask skipped — complete()'s job.
func (c *cursor) decode(start int64, offs []uint32, rest bool) error {
	mask, row, f := c.mask, c.row[:len(offs)], c.p.f
	for fi, o := range offs {
		if mask != nil && mask[fi] == rest {
			if !rest {
				row[fi] = value.VNull
			}
			continue
		}
		if o == AbsentOff {
			row[fi] = NullFor(c.p.schema.Fields[fi].Type)
			continue
		}
		if err := f.Field(c.data, fi, int(start)+int(o), &row[fi]); err != nil {
			return err
		}
	}
	return nil
}

// emit hands the decoded row to the consumer, with a complete callback
// that decodes the fields the mask skipped.
func (c *cursor) emit(start int64, offs []uint32) error {
	complete := noComplete
	if c.mask != nil {
		complete = func() error { return c.decode(start, offs, true) }
	}
	return c.fn(value.Value{Kind: value.Record, L: c.row}, start, complete)
}

// mapped decodes and emits record ri through the positional map.
func (c *cursor) mapped(s *snapshot, ri int) error {
	n := c.p.nfields
	start, offs := s.recStart[ri], s.fieldOff[ri*n:(ri+1)*n]
	if err := c.decode(start, offs, false); err != nil {
		return err
	}
	return c.emit(start, offs)
}

// walk maps every record from Skip(from) to the end of the data through
// Format.Record, materializing mask's fields into the row (none with a nil
// row), and appends each record's start and field offsets to recStart and
// fieldOff — a positional map, which it returns. visit, when set, runs per
// record with the offset just past it.
func (c *cursor) walk(from int, mask []bool, recStart []int64, fieldOff []uint32, visit func(start int64, end int, offs []uint32) error) ([]int64, []uint32, error) {
	n, f := c.p.nfields, c.p.f
	for i := f.Skip(c.data, min(max(from, 0), len(c.data))); i < len(c.data); {
		// No zeroing: Record writes every entry of offs.
		fieldOff = slices.Grow(fieldOff, n)[:len(fieldOff)+n]
		offs := fieldOff[len(fieldOff)-n:]
		end, err := f.Record(c.data, i, mask, c.row, offs)
		if err != nil {
			return nil, nil, err
		}
		recStart = append(recStart, int64(i))
		if visit != nil {
			if err := visit(int64(i), end, offs); err != nil {
				return nil, nil, err
			}
		}
		i = f.Skip(c.data, end)
	}
	return recStart, fieldOff, nil
}

// test runs the pushed tests on one record. An absent field is NULL and
// fails every comparison.
func (c *cursor) test(tests []expr.ColTest, start int64, offs []uint32) (bool, error) {
	for ti := range tests {
		t := &tests[ti]
		o := offs[t.Slot]
		if o == AbsentOff {
			return false, nil
		}
		ok, err := c.p.f.Test(c.data, t, int(start)+int(o))
		if err != nil {
			return false, fmt.Errorf("%s: field %q: %w", c.p.name, c.p.schema.Fields[t.Slot].Name, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// nextCandidate returns the first offset at or after from that any needle
// cursor hits, or len(data) when none does.
func nextCandidate(needles []*expr.NeedleCursor, from int) int {
	m := -1
	for _, nc := range needles {
		if j := nc.Next(from); m < 0 || j < m {
			m = j
		}
	}
	return m
}

// Scan implements plan.ScanProvider. The first call tokenizes the whole
// file and builds the positional map; later calls parse only needed fields.
// The complete callback handed to fn parses the skipped fields in place.
func (p *Provider) Scan(needed []value.Path, fn plan.ScanFunc) error {
	p.scans.Add(1)
	s, mask, err := p.prepare(needed)
	if err != nil {
		return err
	}
	c := p.newCursor(s.data, mask, fn)
	if s.mapped {
		for ri := range s.recStart {
			if err := c.mapped(s, ri); err != nil {
				return err
			}
		}
		return nil
	}
	recStart, fieldOff, err := c.walk(0, mask, nil, nil, func(start int64, _ int, offs []uint32) error {
		return c.emit(start, offs)
	})
	if err != nil {
		return err
	}
	p.publishMap(s, recStart, fieldOff)
	return nil
}

// ScanPushdown implements plan.PushdownScanner: it streams only the records
// passing pd, decoding each tested field straight from its raw bytes (no
// value boxing) and skipping the rest of the record as soon as a test
// fails. When the pushdown carries a string-equality conjunct, the
// format's needle cursors — memchr-style substring searches over the raw
// file — reject records that cannot contain the literal before any field
// is even located, bulk-skipping the stretch between hits on a mapped
// scan. First scans still map every record (the positional map needs every
// field offset) but decode nothing of a failing one. Surviving records
// decode the needed ∪ tested fields; complete() parses the rest on demand,
// exactly like Scan.
func (p *Provider) ScanPushdown(pd *expr.Pushdown, needed []value.Path, fn plan.ScanFunc) (int64, error) {
	tests := pd.Tests()
	if len(tests) == 0 {
		return 0, p.Scan(needed, fn)
	}
	p.scans.Add(1)
	p.pushScans.Add(1)
	s, mask, err := p.prepare(needed)
	if err != nil {
		return 0, err
	}
	c := p.newCursor(s.data, effectiveMask(mask, tests), fn)
	needles := p.f.Needles(s.data, pd)
	var skipped int64
	defer func() { p.pushSkipped.Add(skipped) }()
	if !s.mapped {
		// Map each record without materializing it; only survivors decode.
		mapOnly := &cursor{p: p, data: s.data}
		recStart, fieldOff, err := mapOnly.walk(0, nil, nil, nil, func(start int64, end int, offs []uint32) error {
			if needles != nil && nextCandidate(needles, int(start)) >= end {
				// No needle hit within the record: no field can equal the
				// literal, so skip without decoding any test column.
				skipped++
				return nil
			}
			pass, err := c.test(tests, start, offs)
			if err != nil {
				return err
			}
			if !pass {
				skipped++
				return nil
			}
			if err := c.decode(start, offs, false); err != nil {
				return err
			}
			return c.emit(start, offs)
		})
		if err != nil {
			return skipped, err
		}
		p.publishMap(s, recStart, fieldOff)
		return skipped, nil
	}
	n := p.nfields
	for ri := 0; ri < len(s.recStart); ri++ {
		if needles != nil {
			// Jump to the next record that can contain the equality
			// literal, bulk-counting the records in between as skipped.
			m := nextCandidate(needles, int(s.recStart[ri]))
			if m == len(s.data) {
				skipped += int64(len(s.recStart) - ri)
				break
			}
			if rj := s.recordAt(int64(m)); rj > ri {
				skipped += int64(rj - ri)
				ri = rj
			}
		}
		pass, err := c.test(tests, s.recStart[ri], s.fieldOff[ri*n:(ri+1)*n])
		if err != nil {
			return skipped, err
		}
		if !pass {
			skipped++
			continue
		}
		if err := c.mapped(s, ri); err != nil {
			return skipped, err
		}
	}
	return skipped, nil
}

// recordAt returns the index of the record whose span contains byte offset
// off (the last record starting at or before it). Requires the positional
// map.
func (s *snapshot) recordAt(off int64) int {
	return sort.Search(len(s.recStart), func(i int) bool { return s.recStart[i] > off }) - 1
}

// ScanOffsets implements plan.ScanProvider: random access through the
// positional map, the access path of lazy (offsets-only) caches.
func (p *Provider) ScanOffsets(offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
	s, mask, err := p.prepare(needed)
	if err != nil {
		return err
	}
	return p.scanOffsets(s, mask, offsets, fn)
}

// ScanOffsetsAt implements plan.EpochScanner: ScanOffsets pinned to a file
// epoch. If the file was rewritten since the offsets were recorded, the
// positions are meaningless in the new bytes — fail with ErrEpochChanged
// instead of dereferencing them.
func (p *Provider) ScanOffsetsAt(epoch uint64, offsets []int64, needed []value.Path, fn plan.ScanFunc) error {
	s, mask, err := p.prepare(needed)
	if err != nil {
		return err
	}
	if s.epoch != epoch {
		return plan.ErrEpochChanged
	}
	return p.scanOffsets(s, mask, offsets, fn)
}

func (p *Provider) scanOffsets(s *snapshot, mask []bool, offsets []int64, fn plan.ScanFunc) error {
	c := p.newCursor(s.data, mask, fn)
	offs := make([]uint32, p.nfields)
	for _, off := range offsets {
		if s.mapped {
			ri := sort.Search(len(s.recStart), func(i int) bool { return s.recStart[i] >= off })
			if ri < len(s.recStart) && s.recStart[ri] == off {
				if err := c.mapped(s, ri); err != nil {
					return err
				}
				continue
			}
		}
		if off < 0 || off >= int64(len(s.data)) {
			return fmt.Errorf("%s: offset %d out of range", p.name, off)
		}
		// No positional map entry: map the single record in place, parsing
		// every field so the complete callback can be a no-op.
		if _, err := p.f.Record(s.data, int(off), nil, c.row, offs); err != nil {
			return err
		}
		if err := fn(value.Value{Kind: value.Record, L: c.row}, off, noComplete); err != nil {
			return err
		}
	}
	return nil
}

// ScanFrom implements plan.RefreshableProvider: stream the records whose
// byte offset is >= from, in file order. The cache manager uses it to scan
// only the appended tail when extending an entry; from is a previous
// covered length, so it always lands on a record boundary.
func (p *Provider) ScanFrom(from int64, needed []value.Path, fn plan.ScanFunc) error {
	s, mask, err := p.prepare(needed)
	if err != nil {
		return err
	}
	c := p.newCursor(s.data, mask, fn)
	if s.mapped {
		lo := sort.Search(len(s.recStart), func(i int) bool { return s.recStart[i] >= from })
		for ri := lo; ri < len(s.recStart); ri++ {
			if err := c.mapped(s, ri); err != nil {
				return err
			}
		}
		return nil
	}
	_, _, err = c.walk(int(from), mask, nil, nil, func(start int64, _ int, offs []uint32) error {
		return c.emit(start, offs)
	})
	return err
}
