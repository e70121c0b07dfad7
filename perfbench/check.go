package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sameRows compares two result sets as multisets of rows. Numbers compare
// with a relative tolerance, because SUM and AVG may add in another order
// on the cached path.
func sameRows(got, want [][]any) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(g[i]), len(w[i]))
		}
		for j := range g[i] {
			if !sameValue(g[i][j], w[i][j]) {
				return fmt.Errorf("row %d column %d = %v, want %v", i, j, g[i][j], w[i][j])
			}
		}
	}
	return nil
}

func sortedRows(rows [][]any) [][]any {
	type keyed struct {
		key string
		row []any
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			if f, ok := number(v); ok {
				b.WriteString(strconv.FormatFloat(f, 'g', 8, 64))
			} else {
				fmt.Fprint(&b, v)
			}
			b.WriteByte('|')
		}
		ks[i] = keyed{b.String(), r}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([][]any, len(ks))
	for i, k := range ks {
		out[i] = k.row
	}
	return out
}

func number(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func sameValue(a, b any) bool {
	fa, okA := number(a)
	fb, okB := number(b)
	if okA && okB {
		return sameFloat(fa, fb)
	}
	return a == b
}

func sameNumber(v any, want int64) bool {
	f, ok := number(v)
	return ok && f == float64(want)
}

func sameFloat(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-6*scale
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
