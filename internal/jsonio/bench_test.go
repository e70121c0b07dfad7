package jsonio

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"recache/internal/expr"
	"recache/internal/value"
)

// BenchmarkFirstScan measures the first-touch parse of an NDJSON file —
// dominated by string scanning, which is the memchr fast path in rawString.
// A fresh provider per iteration keeps each scan a true first scan.
func BenchmarkFirstScan(b *testing.B) {
	var data []byte
	for i := 1; i <= 10000; i++ {
		data = fmt.Appendf(data,
			`{"o_orderkey":%d,"o_totalprice":%d.5,"o_comment":"comment-%d padding padding padding","origin":{"country":"CH","ip":"10.0.%d.%d"},"lineitems":[{"l_quantity":%d,"l_discount":0.1}]}`+"\n",
			i, i%500, i, i%256, (i*7)%256, i%50)
	}
	path := filepath.Join(b.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	schema := orderSchema()
	needed := []value.Path{value.ParsePath("o_orderkey")}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(path, schema)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		err = p.Scan(needed, func(value.Value, int64, func() error) error {
			n++
			return nil
		})
		if err != nil || n != 10000 {
			b.Fatalf("scan: %d rows, %v", n, err)
		}
	}
}

// benchJSON writes rows order objects shaped like BenchmarkFirstScan's and
// returns the path and the file size.
func benchJSON(b *testing.B, rows int) (string, int64) {
	b.Helper()
	var data []byte
	for i := 1; i <= rows; i++ {
		data = fmt.Appendf(data,
			`{"o_orderkey":%d,"o_totalprice":%d.5,"o_comment":"comment-%d padding padding padding","origin":{"country":"CH","ip":"10.0.%d.%d"},"lineitems":[{"l_quantity":%d,"l_discount":0.1}]}`+"\n",
			i, i%500, i, i%256, (i*7)%256, i%50)
	}
	path := filepath.Join(b.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	return path, int64(len(data))
}

// BenchmarkFirstScanPushdown measures the pushdown flavor of the first
// scan: map every object, test one top-level value, decode only survivors.
func BenchmarkFirstScanPushdown(b *testing.B) {
	path, size := benchJSON(b, 10000)
	schema := orderSchema()
	pred := expr.Cmp(expr.OpLt, expr.C("o_totalprice"), expr.L(50.0))
	pd, _ := expr.ExtractPushdown(pred, schema)
	if pd == nil {
		b.Fatal("predicate not pushable")
	}
	needed := []value.Path{value.ParsePath("o_orderkey"), value.ParsePath("o_totalprice")}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(path, schema)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		_, err = p.ScanPushdown(pd, needed, func(value.Value, int64, func() error) error {
			n++
			return nil
		})
		if err != nil || n == 0 {
			b.Fatalf("pushdown scan: %d rows, %v", n, err)
		}
	}
}

// BenchmarkMappedScan is the contrast case: with the positional map built,
// a selective scan jumps straight to the one needed value per record.
func BenchmarkMappedScan(b *testing.B) {
	path, size := benchJSON(b, 10000)
	p, err := New(path, orderSchema())
	if err != nil {
		b.Fatal(err)
	}
	needed := []value.Path{value.ParsePath("o_orderkey")}
	if err := p.Scan(needed, func(value.Value, int64, func() error) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := p.Scan(needed, func(value.Value, int64, func() error) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
