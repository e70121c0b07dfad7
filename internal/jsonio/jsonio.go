// Package jsonio is the JSON input plugin: a schema-guided, hand-rolled
// parser over newline-delimited JSON files. The shared raw-file core
// (internal/rawfile) owns loading, freshness, the positional map — here the
// offset of each top-level field's value — and every scan driver; this
// package owns only what is JSON: schema validation in New, the top-level
// object parser that maps and decodes a record in one pass, the value
// decoders, pushed-test evaluation over raw values, the quoted-literal and
// escape needles, and WriteRecord. Parsing JSON is substantially more
// expensive than CSV, which is precisely the cost heterogeneity ReCache's
// policies react to.
//
// Missing object keys are normalized at ingestion: absent leaves become
// nulls, absent records become records of nulls, absent lists become empty
// lists. Every emitted record is therefore fully shaped by the schema,
// which keeps the cache layouts interchangeable (see DESIGN.md).
package jsonio

import (
	"bytes"
	"fmt"
	"strconv"

	"recache/internal/expr"
	"recache/internal/rawfile"
	"recache/internal/value"
)

// Provider is the shared raw-file provider (see internal/rawfile) driving
// the NDJSON format.
type Provider = rawfile.Provider

// New creates a provider over path with an explicit (possibly nested)
// record schema.
func New(path string, schema *value.Type) (*Provider, error) {
	if schema == nil || schema.Kind != value.Record {
		return nil, fmt.Errorf("jsonio: schema must be a record, got %s", schema)
	}
	if _, err := value.LeafColumns(schema); err != nil {
		return nil, fmt.Errorf("jsonio: %w", err)
	}
	return rawfile.New("jsonio", path, schema, format{schema: schema})
}

// format implements rawfile.Format for newline-delimited JSON objects; a
// record's field offsets point at its top-level values.
type format struct{ schema *value.Type }

// Skip implements rawfile.Format: records start at the next non-blank byte.
func (f format) Skip(data []byte, from int) int { return skipWS(data, from) }

// Record implements rawfile.Format through parseTopObject, which decodes
// the masked values inline while mapping the object: mapping first and
// decoding afterwards would walk each needed value twice.
func (f format) Record(data []byte, start int, mask []bool, row []value.Value, offs []uint32) (int, error) {
	return f.parseTopObject(data, start, mask, row, offs)
}

// Field implements rawfile.Format.
func (f format) Field(data []byte, fi, beg int, dst *value.Value) error {
	v, _, err := parseValue(data, beg, f.schema.Fields[fi].Type)
	if err != nil {
		return fmt.Errorf("jsonio: field %q: %w", f.schema.Fields[fi].Name, err)
	}
	*dst = v
	return nil
}

// Needles implements rawfile.Format: one cursor searches for the equality
// literal in its quoted raw form, one for backslashes — any escape makes a
// record a candidate, since escaped text (\uXXXX and friends) can denote
// the literal without containing its bytes.
func (f format) Needles(data []byte, pd *expr.Pushdown) []*expr.NeedleCursor {
	lit := pd.EqNeedle()
	if lit == nil {
		return nil
	}
	quoted := make([]byte, 0, len(lit)+2)
	quoted = append(append(append(quoted, '"'), lit...), '"')
	return []*expr.NeedleCursor{expr.NewNeedleCursor(data, quoted), expr.NewNeedleCursor(data, []byte{'\\'})}
}

// Test implements rawfile.Format: decode the JSON value at i as the test's
// column kind and run the fused kernel. A null literal fails the test;
// malformed values raise the same errors parseValue would.
func (f format) Test(data []byte, t *expr.ColTest, i int) (bool, error) {
	i = skipWS(data, i)
	if i >= len(data) {
		return false, fmt.Errorf("unexpected end of input")
	}
	if data[i] == 'n' {
		if i+4 <= len(data) && string(data[i:i+4]) == "null" {
			return false, nil
		}
		return false, fmt.Errorf("bad literal at %d", i)
	}
	switch t.Kind {
	case value.Int:
		beg := i
		ni := scanNumber(data, i)
		if ni == beg {
			return false, fmt.Errorf("bad number at %d", i)
		}
		n, err := strconv.ParseInt(string(data[beg:ni]), 10, 64)
		if err != nil {
			// The text may be a float literal; truncate (mirroring parseValue).
			f, ferr := strconv.ParseFloat(string(data[beg:ni]), 64)
			if ferr != nil {
				return false, fmt.Errorf("bad int at %d: %v", i, err)
			}
			n = int64(f)
		}
		return t.TestInt(n), nil
	case value.Float:
		beg := i
		ni := scanNumber(data, i)
		if ni == beg {
			return false, fmt.Errorf("bad number at %d", i)
		}
		f, err := strconv.ParseFloat(string(data[beg:ni]), 64)
		if err != nil {
			return false, fmt.Errorf("bad float at %d: %v", i, err)
		}
		return t.TestFloat(f), nil
	default:
		raw, escaped, _, err := rawString(data, i)
		if err != nil {
			return false, err
		}
		if !escaped {
			return t.TestStrBytes(raw), nil
		}
		return t.TestStr(unescape(raw)), nil
	}
}

// parseTopObject parses one top-level object starting at start, filling
// row (masked fields materialized, others null), recording each field's
// value offset into offs. Returns the index just past the object.
func (f format) parseTopObject(data []byte, start int, mask []bool, row []value.Value, offs []uint32) (int, error) {
	i := start
	for fi := range offs {
		offs[fi] = rawfile.AbsentOff
	}
	for fi := range row {
		row[fi] = value.VNull
	}
	i = skipWS(data, i)
	if i >= len(data) || data[i] != '{' {
		return i, fmt.Errorf("jsonio: expected '{' at offset %d", i)
	}
	i++
	first := true
	for {
		i = skipWS(data, i)
		if i >= len(data) {
			return i, fmt.Errorf("jsonio: unterminated object")
		}
		if data[i] == '}' {
			i++
			break
		}
		if !first {
			if data[i] != ',' {
				return i, fmt.Errorf("jsonio: expected ',' at offset %d", i)
			}
			i = skipWS(data, i+1)
		}
		first = false
		key, ni, err := parseString(data, i)
		if err != nil {
			return i, err
		}
		i = skipWS(data, ni)
		if i >= len(data) || data[i] != ':' {
			return i, fmt.Errorf("jsonio: expected ':' at offset %d", i)
		}
		i = skipWS(data, i+1)
		fi, ft := f.schema.FieldIndex(key)
		if fi < 0 {
			// Unknown key: skip its value.
			ni, err := skipValue(data, i)
			if err != nil {
				return i, err
			}
			i = ni
			continue
		}
		offs[fi] = uint32(i - start)
		if row != nil && (mask == nil || mask[fi]) {
			v, ni, err := parseValue(data, i, ft)
			if err != nil {
				return i, fmt.Errorf("jsonio: field %q: %w", key, err)
			}
			row[fi] = v
			i = ni
		} else {
			ni, err := skipValue(data, i)
			if err != nil {
				return i, err
			}
			i = ni
		}
	}
	// Normalize absent fields.
	for fi := range offs {
		if row != nil && offs[fi] == rawfile.AbsentOff && (mask == nil || mask[fi]) {
			row[fi] = rawfile.NullFor(f.schema.Fields[fi].Type)
		}
	}
	return i, nil
}

// parseValue parses a JSON value at i according to the expected type t.
func parseValue(data []byte, i int, t *value.Type) (value.Value, int, error) {
	i = skipWS(data, i)
	if i >= len(data) {
		return value.VNull, i, fmt.Errorf("unexpected end of input")
	}
	if data[i] == 'n' {
		if i+4 <= len(data) && string(data[i:i+4]) == "null" {
			return rawfile.NullFor(t), i + 4, nil
		}
		return value.VNull, i, fmt.Errorf("bad literal at %d", i)
	}
	switch t.Kind {
	case value.Record:
		return parseObject(data, i, t)
	case value.List:
		return parseArray(data, i, t)
	case value.String:
		s, ni, err := parseString(data, i)
		if err != nil {
			return value.VNull, i, err
		}
		return value.VString(s), ni, nil
	case value.Bool:
		if i+4 <= len(data) && string(data[i:i+4]) == "true" {
			return value.VBool(true), i + 4, nil
		}
		if i+5 <= len(data) && string(data[i:i+5]) == "false" {
			return value.VBool(false), i + 5, nil
		}
		return value.VNull, i, fmt.Errorf("bad bool at %d", i)
	case value.Int:
		beg := i
		ni := scanNumber(data, i)
		if ni == beg {
			return value.VNull, i, fmt.Errorf("bad number at %d", i)
		}
		n, err := strconv.ParseInt(string(data[beg:ni]), 10, 64)
		if err != nil {
			// The text may be a float literal; truncate.
			f, ferr := strconv.ParseFloat(string(data[beg:ni]), 64)
			if ferr != nil {
				return value.VNull, i, fmt.Errorf("bad int at %d: %v", i, err)
			}
			return value.VInt(int64(f)), ni, nil
		}
		return value.VInt(n), ni, nil
	case value.Float:
		beg := i
		ni := scanNumber(data, i)
		if ni == beg {
			return value.VNull, i, fmt.Errorf("bad number at %d", i)
		}
		f, err := strconv.ParseFloat(string(data[beg:ni]), 64)
		if err != nil {
			return value.VNull, i, fmt.Errorf("bad float at %d: %v", i, err)
		}
		return value.VFloat(f), ni, nil
	}
	return value.VNull, i, fmt.Errorf("unsupported type %s", t)
}

func parseObject(data []byte, i int, t *value.Type) (value.Value, int, error) {
	if data[i] != '{' {
		return value.VNull, i, fmt.Errorf("expected '{' at %d", i)
	}
	i++
	fields := make([]value.Value, len(t.Fields))
	seen := make([]bool, len(t.Fields))
	first := true
	for {
		i = skipWS(data, i)
		if i >= len(data) {
			return value.VNull, i, fmt.Errorf("unterminated object")
		}
		if data[i] == '}' {
			i++
			break
		}
		if !first {
			if data[i] != ',' {
				return value.VNull, i, fmt.Errorf("expected ',' at %d", i)
			}
			i = skipWS(data, i+1)
		}
		first = false
		key, ni, err := parseString(data, i)
		if err != nil {
			return value.VNull, i, err
		}
		i = skipWS(data, ni)
		if i >= len(data) || data[i] != ':' {
			return value.VNull, i, fmt.Errorf("expected ':' at %d", i)
		}
		i = skipWS(data, i+1)
		fi, ft := t.FieldIndex(key)
		if fi < 0 {
			ni, err := skipValue(data, i)
			if err != nil {
				return value.VNull, i, err
			}
			i = ni
			continue
		}
		v, ni2, err := parseValue(data, i, ft)
		if err != nil {
			return value.VNull, i, err
		}
		fields[fi] = v
		seen[fi] = true
		i = ni2
	}
	for fi := range fields {
		if !seen[fi] {
			fields[fi] = rawfile.NullFor(t.Fields[fi].Type)
		}
	}
	return value.VRecord(fields...), i, nil
}

func parseArray(data []byte, i int, t *value.Type) (value.Value, int, error) {
	if data[i] != '[' {
		return value.VNull, i, fmt.Errorf("expected '[' at %d", i)
	}
	i++
	var elems []value.Value
	first := true
	for {
		i = skipWS(data, i)
		if i >= len(data) {
			return value.VNull, i, fmt.Errorf("unterminated array")
		}
		if data[i] == ']' {
			i++
			break
		}
		if !first {
			if data[i] != ',' {
				return value.VNull, i, fmt.Errorf("expected ',' at %d", i)
			}
			i = skipWS(data, i+1)
		}
		first = false
		v, ni, err := parseValue(data, i, t.Elem)
		if err != nil {
			return value.VNull, i, err
		}
		elems = append(elems, v)
		i = ni
	}
	return value.VList(elems...), i, nil
}

// parseString parses a JSON string (handling escapes) returning its value.
func parseString(data []byte, i int) (string, int, error) {
	raw, escaped, ni, err := rawString(data, i)
	if err != nil {
		return "", ni, err
	}
	if !escaped {
		return string(raw), ni, nil
	}
	return unescape(raw), ni, nil
}

// rawString locates a JSON string's content bytes without materializing it:
// raw is the text between the quotes (escapes unresolved), escaped reports
// whether any escape sequences are present. Pushdown string tests compare
// raw directly when escape-free, allocating nothing.
func rawString(data []byte, i int) (raw []byte, escaped bool, next int, err error) {
	if i >= len(data) || data[i] != '"' {
		return nil, false, i, fmt.Errorf("expected '\"' at %d", i)
	}
	i++
	beg := i
	// memchr to the closing quote; only a backslash in between forces the
	// slow escape-pair walk. The common escape-free string costs one
	// vectorized scan instead of a per-byte loop.
	for i < len(data) {
		j := bytes.IndexByte(data[i:], '"')
		if j < 0 {
			break
		}
		k := i + j
		if b := bytes.IndexByte(data[i:k], '\\'); b >= 0 {
			escaped = true
			i += b + 2 // skip the escape pair; it may hide a quote
			continue
		}
		return data[beg:k], escaped, k + 1, nil
	}
	return nil, false, len(data), fmt.Errorf("unterminated string")
}

func unescape(b []byte) string {
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c != '\\' || i+1 >= len(b) {
			out = append(out, c)
			continue
		}
		i++
		switch b[i] {
		case 'n':
			out = append(out, '\n')
		case 't':
			out = append(out, '\t')
		case 'r':
			out = append(out, '\r')
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'u':
			if i+4 < len(b) {
				if n, err := strconv.ParseUint(string(b[i+1:i+5]), 16, 32); err == nil {
					out = append(out, []byte(string(rune(n)))...)
					i += 4
					continue
				}
			}
			out = append(out, 'u')
		default:
			out = append(out, b[i])
		}
	}
	return string(out)
}

// skipValue advances past any JSON value without materializing it.
func skipValue(data []byte, i int) (int, error) {
	i = skipWS(data, i)
	if i >= len(data) {
		return i, fmt.Errorf("unexpected end of input")
	}
	switch data[i] {
	case '"':
		_, ni, err := parseString(data, i)
		return ni, err
	case '{', '[':
		open, close := data[i], byte('}')
		if open == '[' {
			close = ']'
		}
		depth := 0
		for ; i < len(data); i++ {
			switch data[i] {
			case '"':
				_, ni, err := parseString(data, i)
				if err != nil {
					return i, err
				}
				i = ni - 1
			case open:
				depth++
			case close:
				depth--
				if depth == 0 {
					return i + 1, nil
				}
			}
		}
		return i, fmt.Errorf("unterminated %c", open)
	case 't':
		return i + 4, nil
	case 'f':
		return i + 5, nil
	case 'n':
		return i + 4, nil
	default:
		ni := scanNumber(data, i)
		if ni == i {
			return i, fmt.Errorf("bad value at %d", i)
		}
		return ni, nil
	}
}

func scanNumber(data []byte, i int) int {
	for i < len(data) {
		c := data[i]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			i++
			continue
		}
		break
	}
	return i
}

func skipWS(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// WriteRecord appends one record as a JSON line to buf, following the
// schema's field order; null leaves are omitted (exercising the optional-
// field path on re-read). It is used by the data generators.
func WriteRecord(buf []byte, rec value.Value, schema *value.Type) []byte {
	buf = writeValue(buf, rec, schema)
	return append(buf, '\n')
}

func writeValue(buf []byte, v value.Value, t *value.Type) []byte {
	switch t.Kind {
	case value.Record:
		buf = append(buf, '{')
		first := true
		for i, f := range t.Fields {
			var fv value.Value
			if i < len(v.L) {
				fv = v.L[i]
			}
			if fv.Kind == value.Null {
				continue // omit null fields entirely
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = strconv.AppendQuote(buf, f.Name)
			buf = append(buf, ':')
			buf = writeValue(buf, fv, f.Type)
		}
		return append(buf, '}')
	case value.List:
		buf = append(buf, '[')
		for i := range v.L {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = writeValue(buf, v.L[i], t.Elem)
		}
		return append(buf, ']')
	case value.String:
		if v.Kind == value.Null {
			return append(buf, "null"...)
		}
		return strconv.AppendQuote(buf, v.S)
	case value.Int:
		if v.Kind == value.Null {
			return append(buf, "null"...)
		}
		return strconv.AppendInt(buf, v.I, 10)
	case value.Float:
		if v.Kind == value.Null {
			return append(buf, "null"...)
		}
		return strconv.AppendFloat(buf, v.F, 'g', -1, 64)
	case value.Bool:
		if v.Kind == value.Null {
			return append(buf, "null"...)
		}
		return strconv.AppendBool(buf, v.B)
	}
	return append(buf, "null"...)
}
