package store

import (
	"reflect"
	"testing"

	"recache/internal/value"
)

// --- Bitmap edges ---

func TestBitmapTrailingBitsWord(t *testing.T) {
	var b Bitmap
	// 130 entries: two full words plus a 2-bit trailing word. Nulls at the
	// word boundaries and in the trailing word.
	nulls := map[int]bool{0: true, 63: true, 64: true, 127: true, 129: true}
	for i := 0; i < 130; i++ {
		b.Append(nulls[i])
	}
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for i := 0; i < 130; i++ {
		if b.Get(i) != nulls[i] {
			t.Errorf("Get(%d) = %v, want %v", i, b.Get(i), nulls[i])
		}
	}
	if got := b.SizeBytes(); got != 3*8 {
		t.Errorf("SizeBytes = %d, want 24 (3 words)", got)
	}
}

func TestBitmapWordBoundaryGrowth(t *testing.T) {
	var b Bitmap
	// Exactly 64 entries must occupy one word; the 65th must grow cleanly
	// even when it is a zero bit (Append(false) at a fresh word must still
	// allocate it, or Get would index past the slice).
	for i := 0; i < 64; i++ {
		b.Append(i%2 == 0)
	}
	if b.SizeBytes() != 8 {
		t.Fatalf("64 entries should fit one word, got %d bytes", b.SizeBytes())
	}
	b.Append(false)
	if b.Get(64) {
		t.Error("entry 64 should be non-null")
	}
	if b.SizeBytes() != 16 {
		t.Errorf("65 entries should occupy two words, got %d bytes", b.SizeBytes())
	}
}

func TestBitmapAppendAfterClone(t *testing.T) {
	// Clone mid-word, then append to both sides: the partially-filled
	// trailing word must not alias. (The layout conversions' copyVec relies
	// on this — a converted store's bitmap shares nothing with its source.)
	var src Bitmap
	for i := 0; i < 70; i++ {
		src.Append(i == 69)
	}
	dst := src.Clone()
	src.Append(true)
	dst.Append(false)
	if dst.Get(69) != true || dst.Get(70) != false {
		t.Errorf("clone bits wrong: Get(69)=%v Get(70)=%v", dst.Get(69), dst.Get(70))
	}
	if src.Get(70) != true {
		t.Errorf("source append lost: Get(70)=%v", src.Get(70))
	}
	// The appends above landed in the same word index on both bitmaps; if
	// Clone shared the trailing word, src's set bit would leak into dst.
	if dst.Len() != 71 || src.Len() != 71 {
		t.Fatalf("lens = %d, %d, want 71", dst.Len(), src.Len())
	}
}

// --- Vec edges ---

func TestVecAllNull(t *testing.T) {
	for _, typ := range []*value.Type{value.TInt, value.TFloat, value.TString, value.TBool} {
		v := newVec(typ)
		for i := 0; i < 100; i++ {
			v.AppendVal(value.VNull)
		}
		if v.Len() != 100 {
			t.Fatalf("%s: Len = %d", typ, v.Len())
		}
		for i := 0; i < 100; i++ {
			if got := v.Get(i); got.Kind != value.Null {
				t.Fatalf("%s: Get(%d) = %v, want null", typ, i, got)
			}
		}
		// The typed slice still holds zero placeholders (alignment matters
		// for batch kernels, which index it before checking the bitmap).
		switch typ.Kind {
		case value.Int:
			if len(v.Ints) != 100 {
				t.Errorf("int placeholders = %d", len(v.Ints))
			}
		case value.Float:
			if len(v.Floats) != 100 {
				t.Errorf("float placeholders = %d", len(v.Floats))
			}
		}
	}
}

func TestVecAppendAfterConvertDoesNotAlias(t *testing.T) {
	// Build a columnar store whose vectors end mid-word, convert it (the
	// fast path copies vectors), then keep appending to the original
	// builder's vectors: the converted store must not see the new entries.
	schema := value.TRecord(
		value.F("a", value.TInt),
		value.F("items", value.TList(value.TRecord(value.F("q", value.TInt)))),
	)
	b, err := NewBuilder(LayoutColumnar, schema)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(a int64, qs ...int64) value.Value {
		items := make([]value.Value, len(qs))
		for i, q := range qs {
			items[i] = value.VRecord(value.VInt(q))
		}
		return value.VRecord(value.VInt(a), value.VList(items...))
	}
	for i := 0; i < 70; i++ {
		b.Add(rec(int64(i), int64(i)*10))
	}
	cs := b.Finish().(*columnarStore)
	conv, _, err := Convert(cs, LayoutParquet)
	if err != nil {
		t.Fatal(err)
	}
	ps := conv.(*parquetStore)
	// Mutate the source's vectors past the conversion point.
	for ci := range cs.vecs {
		cs.vecs[ci].AppendVal(value.VNull)
	}
	for ci, v := range ps.flatVecs {
		if v == nil {
			continue
		}
		if v.Len() != 70 {
			t.Errorf("converted flat col %d grew to %d", ci, v.Len())
		}
		if v.Nulls.Get(69) {
			t.Errorf("converted col %d: entry 69 became null", ci)
		}
	}
	for _, v := range ps.repVecs {
		if v != nil && v.Len() != 70 {
			t.Errorf("converted repeated col grew to %d", v.Len())
		}
	}
}

// --- Batch cursors ---

// drainCursor collects every selected row index of a cursor.
func drainCursor(t *testing.T, cur *BatchCursor) []int32 {
	t.Helper()
	var all []int32
	buf := make([]int32, 8) // tiny batches: exercise multi-batch paths
	for {
		sel := cur.Next(buf)
		if sel == nil {
			return all
		}
		if len(sel) == 0 {
			t.Fatal("cursor returned an empty non-final batch")
		}
		all = append(all, sel...)
	}
}

func TestBatchCursorMatchesRowScans(t *testing.T) {
	schema := value.TRecord(
		value.F("a", value.TInt),
		value.F("s", value.TString),
		value.F("items", value.TList(value.TRecord(value.F("q", value.TInt)))),
	)
	rec := func(a int64, s string, qs ...int64) value.Value {
		items := make([]value.Value, len(qs))
		for i, q := range qs {
			items[i] = value.VRecord(value.VInt(q))
		}
		return value.VRecord(value.VInt(a), value.VString(s), value.VList(items...))
	}
	recs := []value.Value{
		rec(1, "x", 10, 11),
		rec(2, "y"), // empty list: placeholder row, skipped by flat scans
		rec(3, "z", 30),
		rec(4, "w", 40, 41, 42),
	}
	for _, layout := range []Layout{LayoutColumnar, LayoutParquet} {
		b, err := NewBuilder(layout, schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			b.Add(r)
		}
		st := b.Finish()
		bs := st.(BatchSource)

		// Record granularity over non-repeated cols must match ScanRecords.
		cols := []int{0, 1}
		var want [][]value.Value
		if _, err := st.ScanRecords(cols, func(row []value.Value) error {
			want = append(want, append([]value.Value(nil), row...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		cur, ok := bs.BatchCursor(false, cols)
		if !ok {
			t.Fatalf("%v: record-granularity batches unsupported", layout)
		}
		sel := drainCursor(t, cur)
		if len(sel) != len(want) {
			t.Fatalf("%v: %d selected rows, want %d", layout, len(sel), len(want))
		}
		chunk := make([]value.Value, len(sel)*len(cols))
		FillRows(cur.Cols, sel, chunk, len(cols))
		for k := range sel {
			for i := range cols {
				if !chunk[k*len(cols)+i].Equal(want[k][i]) {
					t.Errorf("%v: row %d col %d = %v, want %v",
						layout, k, i, chunk[k*len(cols)+i], want[k][i])
				}
			}
		}

		// Repeated column at record granularity must refuse (row path
		// reports the projection error).
		if _, ok := bs.BatchCursor(false, []int{2}); ok {
			t.Errorf("%v: repeated column should not batch at record granularity", layout)
		}

		// Flat granularity: columnar serves batches (skipping placeholder
		// rows), Parquet's FSM view does not.
		curF, okF := bs.BatchCursor(true, []int{0, 2})
		if layout == LayoutParquet {
			if okF {
				t.Error("parquet flat view should not batch (FSM assembly)")
			}
			continue
		}
		if !okF {
			t.Fatal("columnar flat batches unsupported")
		}
		var wantF [][]value.Value
		if _, err := st.ScanFlat([]int{0, 2}, func(row []value.Value) error {
			wantF = append(wantF, append([]value.Value(nil), row...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		selF := drainCursor(t, curF)
		if len(selF) != len(wantF) {
			t.Fatalf("flat: %d selected rows, want %d", len(selF), len(wantF))
		}
		chunkF := make([]value.Value, len(selF)*2)
		FillRows(curF.Cols, selF, chunkF, 2)
		for k := range selF {
			for i := 0; i < 2; i++ {
				if !chunkF[k*2+i].Equal(wantF[k][i]) {
					t.Errorf("flat row %d col %d = %v, want %v",
						k, i, chunkF[k*2+i], wantF[k][i])
				}
			}
		}
	}
}

// TestAppendGather: appending gathered entries onto a non-empty vector
// keeps its prefix, follows ids in order (repeats included), and carries
// nulls across a bitmap word boundary; Gather matches AppendGather onto an
// empty vector, for every kind.
func TestAppendGather(t *testing.T) {
	vals := map[value.Kind]func(i int) value.Value{
		value.Int:    func(i int) value.Value { return value.VInt(int64(i)) },
		value.Float:  func(i int) value.Value { return value.VFloat(float64(i) + 0.5) },
		value.String: func(i int) value.Value { return value.VString(string(rune('a' + i%26))) },
		value.Bool:   func(i int) value.Value { return value.VBool(i%3 == 0) },
	}
	for kind, gen := range vals {
		src := NewVec(kind)
		for i := 0; i < 100; i++ {
			if i%7 == 0 {
				src.AppendVal(value.VNull)
			} else {
				src.AppendVal(gen(i))
			}
		}
		dst := NewVec(kind)
		for i := 0; i < 60; i++ {
			dst.AppendVal(gen(i))
		}
		ids := []int32{99, 0, 7, 8, 8, 63, 64, 50}
		AppendGather(dst, src, ids)
		if dst.Len() != 60+len(ids) {
			t.Fatalf("%v: Len = %d, want %d", kind, dst.Len(), 60+len(ids))
		}
		for i := 0; i < 60; i++ {
			if got := dst.Get(i); !reflect.DeepEqual(got, gen(i)) {
				t.Errorf("%v: prefix[%d] = %v, want %v", kind, i, got, gen(i))
			}
		}
		g := Gather(src, ids)
		for k, id := range ids {
			want := src.Get(int(id))
			if got := dst.Get(60 + k); !reflect.DeepEqual(got, want) {
				t.Errorf("%v: appended[%d] = %v, want src[%d] = %v", kind, k, got, id, want)
			}
			if got := g.Get(k); !reflect.DeepEqual(got, want) {
				t.Errorf("%v: Gather[%d] = %v, want %v", kind, k, got, want)
			}
		}
	}
}
