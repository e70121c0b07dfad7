package store

import (
	"slices"

	"recache/internal/value"
)

// This file holds the batch gather helpers the vectorized join uses: a
// join's build table stores row-ids into retained column vectors instead
// of copied rows, and the probe side materializes matched output batches
// by gathering those row-ids back out of the columns — typed moves end to
// end, no boxed value.Value until the pipeline boundary.

// NewVec returns an empty vector of the given kind; the vectorized join
// compacts non-addressable build batches into fresh vectors through
// AppendGather.
func NewVec(k value.Kind) *Vec { return &Vec{Kind: k} }

// Gather returns a new vector holding src's entries at ids, in order (the
// row-id addressing of the vectorized join's output batches).
func Gather(src *Vec, ids []int32) *Vec {
	out := &Vec{Kind: src.Kind}
	AppendGather(out, src, ids)
	return out
}

// AppendGather appends src's entries at ids to dst, in order. Both vectors
// must share a kind. The kind dispatch happens once per call, not per row.
func AppendGather(dst, src *Vec, ids []int32) {
	switch src.Kind {
	case value.Int:
		dst.Ints = gatherInto(dst.Ints, src.Ints, ids)
	case value.Float:
		dst.Floats = gatherInto(dst.Floats, src.Floats, ids)
	case value.String:
		dst.Strs = gatherInto(dst.Strs, src.Strs, ids)
	case value.Bool:
		dst.Bools = gatherInto(dst.Bools, src.Bools, ids)
	}
	dst.Nulls.grow(len(ids))
	for _, id := range ids {
		dst.Nulls.Append(src.Nulls.Get(int(id)))
	}
}

// gatherInto appends src[id] for every id to dst, growing it once.
func gatherInto[T any](dst, src []T, ids []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(ids))[:n+len(ids)]
	out := dst[n:]
	for k, id := range ids {
		out[k] = src[id]
	}
	return dst
}
