package csvio

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"recache/internal/expr"
	"recache/internal/plan"
	"recache/internal/value"
)

// scanned is one scan's output: copied rows and their offsets, or the error
// that stopped it.
type scanned struct {
	rows [][]value.Value
	offs []int64
	err  error
}

func record(out *scanned) plan.ScanFunc {
	return func(rec value.Value, off int64, _ func() error) error {
		out.rows = append(out.rows, append([]value.Value(nil), rec.L...))
		out.offs = append(out.offs, off)
		return nil
	}
}

func fullScan(p *Provider) scanned {
	var out scanned
	out.err = p.Scan(nil, record(&out))
	return out
}

func sameScan(a, b scanned) bool {
	return (a.err == nil) == (b.err == nil) && reflect.DeepEqual(a.rows, b.rows) && reflect.DeepEqual(a.offs, b.offs)
}

// FuzzCSVScan checks the raw-file drivers against each other over arbitrary
// bytes: no input panics any scan flavor or Refresh; a mapped rescan
// repeats the first scan; a pushdown scan yields exactly the plain scan's
// rows that pass its predicate, in order; and after an appended refresh
// the extended provider scans like a fresh one over the covered bytes.
func FuzzCSVScan(f *testing.F) {
	f.Add([]byte(testData), []byte("4|1.5|delta\n"), int64(2), false)
	f.Add([]byte(""), []byte("id|price|name\n1|2.5|x\n"), int64(1), true)
	f.Add([]byte("id|price|name\n"), []byte("1|2.5|x\n2||y\n3|1|"), int64(2), true)
	f.Add([]byte("1|2|x|extra\n2|3.5|\n|1|2\n"), []byte("3|4|5|6\n"), int64(3), false)
	f.Add([]byte("1|x|y\n"), []byte("\n"), int64(-1), false)
	f.Fuzz(func(t *testing.T, body, suffix []byte, bound int64, header bool) {
		opts := Options{HasHeader: header}
		dir := t.TempDir()
		path := filepath.Join(dir, "f.csv")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := New(path, testSchema(), opts)
		if err != nil {
			t.Fatal(err)
		}
		first := fullScan(p)
		if first.err == nil {
			if again := fullScan(p); !sameScan(first, again) {
				t.Fatalf("mapped rescan = %+v, first scan = %+v", again, first)
			}
		}
		preds := []expr.Expr{
			expr.Cmp(expr.OpLt, expr.C("id"), expr.L(bound)),
			expr.Cmp(expr.OpGe, expr.C("price"), expr.L(float64(bound)/4)),
			expr.Cmp(expr.OpEq, expr.C("name"), expr.L(strconv.FormatInt(bound, 10))),
		}
		for _, pred := range preds {
			pd, _ := expr.ExtractPushdown(pred, p.Schema())
			keep, err := expr.CompilePredicate(pred, p.Schema())
			if pd == nil || err != nil {
				t.Fatalf("predicate %s: pushdown %v, %v", pred.Canonical(), pd, err)
			}
			var got scanned
			_, got.err = p.ScanPushdown(pd, nil, record(&got))
			if first.err != nil {
				continue
			}
			var want scanned
			for i, row := range first.rows {
				if keep(row) {
					want.rows = append(want.rows, row)
					want.offs = append(want.offs, first.offs[i])
				}
			}
			if !sameScan(got, want) {
				t.Fatalf("ScanPushdown(%s) = %+v, filtered Scan = %+v", pred.Canonical(), got, want)
			}
		}
		noop := func(value.Value, int64, func() error) error { return nil }
		_ = p.ScanOffsets(append(first.offs, bound, -1, int64(len(body))), nil, noop)
		_ = p.ScanFrom(bound, nil, noop)

		appendFile(t, path, string(suffix))
		rep, err := p.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		_ = p.ScanFrom(int64(len(body)), nil, noop)
		if rep.Status != plan.FileAppended {
			return
		}
		covered := filepath.Join(dir, "covered.csv")
		all := append(append([]byte(nil), body...), suffix...)
		if err := os.WriteFile(covered, all[:rep.Covered], 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(covered, testSchema(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fullScan(p), fullScan(fresh); !sameScan(got, want) {
			t.Fatalf("scan after append = %+v, fresh provider = %+v", got, want)
		}
	})
}
