package csvio

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"recache/internal/plan"
	"recache/internal/value"
)

func appendFile(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshBeforeLoadIsUnchanged(t *testing.T) {
	p, err := New(writeFile(t, testData), testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Refresh()
	if err != nil || rep.Status != plan.FileUnchanged {
		t.Fatalf("Refresh on unloaded provider = %+v, %v; want FileUnchanged", rep, err)
	}
}

func TestRefreshAppendExtends(t *testing.T) {
	path := writeFile(t, testData)
	p, err := New(path, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, p, nil) // load + build the positional map
	epoch0, cov0 := p.Version()
	if epoch0 != 1 || cov0 != int64(len(testData)) {
		t.Fatalf("Version = (%d, %d), want (1, %d)", epoch0, cov0, len(testData))
	}

	appendFile(t, path, "4|1.5|delta\n5|2.5|epsilon\n")
	rep, err := p.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != plan.FileAppended || rep.Epoch != 1 {
		t.Fatalf("Refresh = %+v, want FileAppended at epoch 1", rep)
	}
	if rep.TailBytes <= 0 || rep.Covered != cov0+rep.TailBytes {
		t.Fatalf("Refresh covered/tail inconsistent: %+v (cov0 %d)", rep, cov0)
	}

	rows, offs := collect(t, p, nil)
	if len(rows) != 5 {
		t.Fatalf("rows after append = %d, want 5", len(rows))
	}
	if got := rows[4][2]; !reflect.DeepEqual(got, value.VString("epsilon")) {
		t.Fatalf("appended row = %v", rows[4])
	}

	// The positional map must cover the tail: replay of the appended
	// offsets at the same epoch parses the new records.
	var replay [][]value.Value
	err = p.ScanOffsetsAt(1, offs[3:], nil, func(rec value.Value, _ int64, _ func() error) error {
		replay = append(replay, append([]value.Value(nil), rec.L...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, rows[3:]) {
		t.Fatalf("offset replay of tail = %v, want %v", replay, rows[3:])
	}
}

func TestScanFromStreamsOnlyTail(t *testing.T) {
	path := writeFile(t, testData)
	p, err := New(path, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, p, nil)
	_, cov0 := p.Version()
	appendFile(t, path, "4|1.5|delta\n")
	if rep, err := p.Refresh(); err != nil || rep.Status != plan.FileAppended {
		t.Fatalf("Refresh = %+v, %v", rep, err)
	}
	var tail [][]value.Value
	err = p.ScanFrom(cov0, nil, func(rec value.Value, off int64, _ func() error) error {
		if off < cov0 {
			t.Fatalf("ScanFrom emitted pre-tail offset %d", off)
		}
		tail = append(tail, append([]value.Value(nil), rec.L...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]value.Value{{value.VInt(4), value.VFloat(1.5), value.VString("delta")}}
	if !reflect.DeepEqual(tail, want) {
		t.Fatalf("ScanFrom tail = %v, want %v", tail, want)
	}
}

func TestRefreshRewriteBumpsEpoch(t *testing.T) {
	path := writeFile(t, testData)
	p, err := New(path, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, offs := collect(t, p, nil)

	if err := os.WriteFile(path, []byte("9|9.9|omega\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := p.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != plan.FileRewritten || rep.Epoch != 2 {
		t.Fatalf("Refresh = %+v, want FileRewritten at epoch 2", rep)
	}

	// Old-epoch offsets are dead: the epoch-checked replay refuses them.
	err = p.ScanOffsetsAt(1, offs, nil, func(value.Value, int64, func() error) error { return nil })
	if !errors.Is(err, plan.ErrEpochChanged) {
		t.Fatalf("ScanOffsetsAt(stale epoch) err = %v, want ErrEpochChanged", err)
	}

	rows, _ := collect(t, p, nil)
	if len(rows) != 1 || !reflect.DeepEqual(rows[0][0], value.VInt(9)) {
		t.Fatalf("rows after rewrite = %v", rows)
	}
	if epoch, cov := p.Version(); epoch != 2 || cov != int64(len("9|9.9|omega\n")) {
		t.Fatalf("Version after rewrite = (%d, %d)", epoch, cov)
	}
}

func TestRefreshTornTailWaitsForNewline(t *testing.T) {
	path := writeFile(t, testData)
	p, err := New(path, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, p, nil)
	_, cov0 := p.Version()

	// A writer mid-append: the tail has no terminating newline yet. The
	// provider must not ingest the torn record — it reports Unchanged and
	// re-checks on the next access.
	appendFile(t, path, "4|1.5|del")
	rep, err := p.Refresh()
	if err != nil || rep.Status != plan.FileUnchanged {
		t.Fatalf("Refresh(torn tail) = %+v, %v; want FileUnchanged", rep, err)
	}
	if _, cov := p.Version(); cov != cov0 {
		t.Fatalf("covered moved on torn tail: %d -> %d", cov0, cov)
	}

	appendFile(t, path, "ta\n")
	rep, err = p.Refresh()
	if err != nil || rep.Status != plan.FileAppended {
		t.Fatalf("Refresh(completed tail) = %+v, %v; want FileAppended", rep, err)
	}
	rows, _ := collect(t, p, nil)
	if len(rows) != 4 || !reflect.DeepEqual(rows[3][2], value.VString("delta")) {
		t.Fatalf("rows after completed append = %v", rows)
	}
}

// An empty file with a header declared gets its header and first rows in
// one append. The extended positional map must start past the header, the
// same place a fresh provider's first scan starts, so neither Scan nor the
// tail scan serves the header as a data row.
func TestRefreshAppendToEmptyFileSkipsHeader(t *testing.T) {
	schema := value.TRecord(value.F("a", value.TString), value.F("b", value.TString))
	opts := Options{HasHeader: true}
	path := writeFile(t, "")
	p, err := New(path, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := collect(t, p, nil); len(rows) != 0 {
		t.Fatalf("rows of empty file = %v", rows)
	}

	appendFile(t, path, "a|b\nx|y\n")
	if rep, err := p.Refresh(); err != nil || rep.Status != plan.FileAppended {
		t.Fatalf("Refresh = %+v, %v; want FileAppended", rep, err)
	}
	want := [][]value.Value{{value.VString("x"), value.VString("y")}}
	if rows, _ := collect(t, p, nil); !reflect.DeepEqual(rows, want) {
		t.Fatalf("Scan after append = %v, want %v", rows, want)
	}
	var tail [][]value.Value
	err = p.ScanFrom(0, nil, func(rec value.Value, _ int64, _ func() error) error {
		tail = append(tail, append([]value.Value(nil), rec.L...))
		return nil
	})
	if err != nil || !reflect.DeepEqual(tail, want) {
		t.Fatalf("ScanFrom(0) after append = %v, %v; want %v", tail, err, want)
	}

	fresh, err := New(path, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := collect(t, fresh, nil); !reflect.DeepEqual(rows, want) {
		t.Fatalf("fresh Scan = %v, want %v", rows, want)
	}
}
