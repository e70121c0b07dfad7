// Package csvio is the CSV input plugin over delimited text files. The
// shared raw-file core (internal/rawfile) owns loading, freshness, the
// positional map and every scan driver; this package owns only what is
// CSV: option handling and schema validation in New, the line tokenizer
// that maps a record's field offsets, the field decoders and pushed-test
// evaluation over raw field bytes, the header rule (records start past the
// header line), and InferSchema.
package csvio

import (
	"bytes"
	"fmt"
	"os"
	"strconv"

	"recache/internal/expr"
	"recache/internal/rawfile"
	"recache/internal/value"
)

// Options configures a CSV provider.
type Options struct {
	// Delim is the field delimiter; the default is '|' (TPC-H style).
	Delim byte
	// HasHeader skips the first line (and InferSchema uses it for names).
	HasHeader bool
}

func (o Options) delim() byte {
	if o.Delim == 0 {
		return '|'
	}
	return o.Delim
}

// Provider is the shared raw-file provider (see internal/rawfile) driving
// the CSV format.
type Provider = rawfile.Provider

// New creates a provider over path with an explicit flat record schema.
func New(path string, schema *value.Type, opts Options) (*Provider, error) {
	if schema == nil || schema.Kind != value.Record {
		return nil, fmt.Errorf("csvio: schema must be a record, got %s", schema)
	}
	for _, f := range schema.Fields {
		if !f.Type.IsPrimitive() {
			return nil, fmt.Errorf("csvio: field %q is not primitive", f.Name)
		}
	}
	return rawfile.New("csvio", path, schema, &format{schema: schema, delim: opts.delim(), header: opts.HasHeader})
}

// format implements rawfile.Format for delimited text: one record per
// line, fields split at the delimiter, an empty field is NULL.
type format struct {
	schema *value.Type
	delim  byte
	header bool
}

// Skip implements rawfile.Format: records start on a line boundary, past
// the header line when the options declare one.
func (f *format) Skip(data []byte, from int) int {
	if !f.header || (from > 0 && data[from-1] == '\n') {
		return from
	}
	return max(from, min(lineEnd(data, 0)+1, len(data)))
}

// Record implements rawfile.Format: tokenize the line starting at start,
// then decode the masked fields, each ending where the next field's offset
// says (no second delimiter search).
func (f *format) Record(data []byte, start int, mask []bool, row []value.Value, offs []uint32) (int, error) {
	end := lineEnd(data, start)
	nf := tokenizeLine(data[start:end], f.delim, offs)
	if nf < len(offs) {
		return 0, fmt.Errorf("csvio: record at offset %d has %d fields, want %d", start, nf, len(offs))
	}
	for fi := range row {
		if mask != nil && !mask[fi] {
			row[fi] = value.VNull
			continue
		}
		beg := start + int(offs[fi])
		fe := end
		switch {
		case fi+1 < len(offs):
			fe = start + int(offs[fi+1]) - 1
		case nf > len(offs):
			// Extra trailing fields: the last mapped field ends at its own
			// delimiter, not the line end.
			fe = f.fieldEnd(data, beg)
		}
		if err := f.parseField(fi, data[beg:fe], &row[fi]); err != nil {
			return 0, err
		}
	}
	return min(end+1, len(data)), nil
}

// Field implements rawfile.Format.
func (f *format) Field(data []byte, fi, beg int, dst *value.Value) error {
	return f.parseField(fi, data[beg:f.fieldEnd(data, beg)], dst)
}

// Needles implements rawfile.Format: CSV fields are unquoted, so the
// equality literal's bare bytes are the needle.
func (f *format) Needles(data []byte, pd *expr.Pushdown) []*expr.NeedleCursor {
	if nc := expr.NewNeedleCursor(data, pd.EqNeedle()); nc != nil {
		return []*expr.NeedleCursor{nc}
	}
	return nil
}

// lineEnd returns the offset of the newline terminating the record that
// starts at i (len(data) for an unterminated last record), found with one
// memchr-backed prescan instead of a byte-at-a-time loop.
func lineEnd(data []byte, i int) int {
	if j := bytes.IndexByte(data[i:], '\n'); j >= 0 {
		return i + j
	}
	return len(data)
}

// tokenizeLine writes the first len(offs) field offsets (relative to the
// record start) of line into offs and returns the total field count.
// bytes.IndexByte does the delimiter search word-at-a-time — the first scan
// still touches every byte of the file, but in the runtime's vectorized
// memchr rather than a branchy per-byte loop.
func tokenizeLine(line []byte, delim byte, offs []uint32) int {
	fi, off := 0, 0
	for {
		if fi < len(offs) {
			offs[fi] = uint32(off)
		}
		fi++
		j := bytes.IndexByte(line[off:], delim)
		if j < 0 {
			return fi
		}
		off += j + 1
	}
}

// Test implements rawfile.Format: decode one field's raw bytes as the
// test's column kind and evaluate the fused kernel. An empty field is NULL
// and fails; a malformed field is the same error a normal decode of that
// field would raise.
func (f *format) Test(data []byte, t *expr.ColTest, beg int) (bool, error) {
	b := data[beg:f.fieldEnd(data, beg)]
	if len(b) == 0 {
		return false, nil
	}
	switch t.Kind {
	case value.Int:
		n, err := parseInt(b)
		if err != nil {
			return false, err
		}
		return t.TestInt(n), nil
	case value.Float:
		// string(b) does not heap-allocate here: ParseFloat's argument is
		// non-escaping, so the conversion stays on the stack.
		v, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return false, err
		}
		return t.TestFloat(v), nil
	default:
		return t.TestStrBytes(b), nil
	}
}

func (f *format) fieldEnd(data []byte, beg int) int {
	i := beg
	for i < len(data) && data[i] != f.delim && data[i] != '\n' {
		i++
	}
	return i
}

func (f *format) parseField(fi int, b []byte, dst *value.Value) error {
	if len(b) == 0 {
		*dst = value.VNull
		return nil
	}
	switch f.schema.Fields[fi].Type.Kind {
	case value.Int:
		n, err := parseInt(b)
		if err != nil {
			return fmt.Errorf("csvio: field %q: %w", f.schema.Fields[fi].Name, err)
		}
		*dst = value.VInt(n)
	case value.Float:
		v, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return fmt.Errorf("csvio: field %q: %w", f.schema.Fields[fi].Name, err)
		}
		*dst = value.VFloat(v)
	case value.Bool:
		switch string(b) {
		case "true", "1", "t":
			*dst = value.VBool(true)
		case "false", "0", "f":
			*dst = value.VBool(false)
		default:
			return fmt.Errorf("csvio: field %q: bad bool %q", f.schema.Fields[fi].Name, b)
		}
	default:
		*dst = value.VString(string(b))
	}
	return nil
}

// parseInt parses a decimal integer without allocating.
func parseInt(b []byte) (int64, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		i = 1
	}
	if i >= len(b) {
		return 0, fmt.Errorf("bad int %q", b)
	}
	var n int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad int %q", b)
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}

// InferSchema derives a flat record schema from the file: names from the
// header when present (else c0, c1, ...), types from the first data row
// (int, then float, then string).
func InferSchema(path string, opts Options) (*value.Type, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	delim := opts.delim()
	lines := splitN(b, '\n', 2+boolToInt(opts.HasHeader))
	if len(lines) == 0 {
		return nil, fmt.Errorf("csvio: empty file %s", path)
	}
	var names []string
	dataLine := lines[0]
	if opts.HasHeader {
		for _, f := range splitN(lines[0], delim, -1) {
			names = append(names, string(f))
		}
		if len(lines) < 2 {
			return nil, fmt.Errorf("csvio: header but no data in %s", path)
		}
		dataLine = lines[1]
	}
	fields := splitN(dataLine, delim, -1)
	if names == nil {
		for i := range fields {
			names = append(names, fmt.Sprintf("c%d", i))
		}
	}
	if len(names) != len(fields) {
		return nil, fmt.Errorf("csvio: header has %d fields, data has %d", len(names), len(fields))
	}
	out := make([]value.Field, len(fields))
	for i, f := range fields {
		out[i] = value.F(names[i], inferType(f))
	}
	return value.TRecord(out...), nil
}

func inferType(b []byte) *value.Type {
	if _, err := parseInt(b); err == nil {
		return value.TInt
	}
	if _, err := strconv.ParseFloat(string(b), 64); err == nil {
		return value.TFloat
	}
	return value.TString
}

func splitN(b []byte, sep byte, n int) [][]byte {
	var out [][]byte
	beg := 0
	for i := 0; i < len(b); i++ {
		if b[i] == sep {
			out = append(out, b[beg:i])
			beg = i + 1
			if n > 0 && len(out) == n-1 {
				break
			}
		}
	}
	if beg < len(b) {
		tail := b[beg:]
		if len(tail) > 0 && tail[len(tail)-1] == '\r' {
			tail = tail[:len(tail)-1]
		}
		if len(tail) > 0 {
			out = append(out, tail)
		}
	}
	return out
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
