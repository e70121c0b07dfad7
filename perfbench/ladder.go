package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"recache/internal/client"
	"recache/internal/sqlparse"
	"recache/internal/store"
)

// ladderReps is how often each rung runs per query; rungs report medians.
const ladderReps = 9

// ladderResult holds the ladder pass: for each sampled query the median
// of ladderReps runs of each rung, averaged over the sample. The same
// query runs through ever more layers, so adjacent rungs subtract:
//
//	parse        sqlparse.Parse
//	engine       Engine.QueryColumnar on the engine that owns the query
//	encode       store.WriteParquet of that result (the RCS1 batch)
//	decode       store.ReadParquetBytes of those bytes
//	client       Client.Query to the owning shard (served workloads)
//	router       Router.Query (served workloads)
//
// wire = client − server-reported exec wall; router hop = router − client.
type ladderResult struct {
	parseUs, engineOverheadUs     float64
	encodeUs, decodeUs, resultB   float64
	wireUs, hopUs                 float64
	scanUs, buildUs, engineWallUs float64
}

func runLadder(in *instance) (*ladderResult, error) {
	var direct map[int]*client.Client
	if in.router != nil {
		direct = map[int]*client.Client{}
		defer func() {
			for _, cl := range direct {
				cl.Close()
			}
		}()
	}
	var parse, over, enc, dec, size, wire, hop, scan, build, wall []float64
	var buf bytes.Buffer
	for _, sql := range in.ladder {
		owner := 0
		if in.router != nil {
			owner = in.router.ShardFor(sql)
		}
		eng := in.engines[owner]
		var p, o, e, d, w, cq, rq, sc, bd, wl []float64
		for r := 0; r < ladderReps; r++ {
			t0 := time.Now()
			if _, err := sqlparse.Parse(sql); err != nil {
				return nil, err
			}
			p = append(p, us(time.Since(t0)))

			t0 = time.Now()
			br, err := eng.QueryColumnar(sql)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", sql, err)
			}
			o = append(o, us(time.Since(t0)-br.Stats.Wall))
			sc = append(sc, us(br.Stats.CacheScan))
			bd = append(bd, us(br.Stats.CacheBuild))
			wl = append(wl, us(br.Stats.Wall))

			buf.Reset()
			t0 = time.Now()
			if err := store.WriteParquet(&buf, br.Store); err != nil {
				return nil, err
			}
			e = append(e, us(time.Since(t0)))
			size = append(size, float64(buf.Len()))
			t0 = time.Now()
			if _, err := store.ReadParquetBytes(buf.Bytes(), br.Schema); err != nil {
				return nil, err
			}
			d = append(d, us(time.Since(t0)))

			if in.router == nil {
				continue
			}
			cl := direct[owner]
			if cl == nil {
				if cl, err = client.Dial(in.addrs[owner], client.Options{RequestTimeout: queryTimeout}); err != nil {
					return nil, err
				}
				direct[owner] = cl
			}
			t0 = time.Now()
			res, err := cl.Query(sql)
			if err != nil {
				return nil, err
			}
			took := time.Since(t0)
			cq = append(cq, us(took))
			w = append(w, us(took-res.Wall))
			t0 = time.Now()
			if _, err := in.router.Query(sql); err != nil {
				return nil, err
			}
			rq = append(rq, us(time.Since(t0)))
		}
		parse = append(parse, median(p))
		over = append(over, median(o))
		enc = append(enc, median(e))
		dec = append(dec, median(d))
		scan = append(scan, median(sc))
		build = append(build, median(bd))
		wall = append(wall, median(wl))
		if in.router != nil {
			wire = append(wire, median(w))
			hop = append(hop, median(rq)-median(cq))
		}
	}
	lr := &ladderResult{
		parseUs:          mean(parse),
		engineOverheadUs: mean(over),
		encodeUs:         mean(enc),
		decodeUs:         mean(dec),
		resultB:          mean(size),
		scanUs:           mean(scan),
		buildUs:          mean(build),
		engineWallUs:     mean(wall),
	}
	if in.router != nil {
		lr.wireUs = mean(wire)
		lr.hopUs = mean(hop)
	}
	return lr, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// layerMetrics assembles the per-layer metrics of a traced run. Every
// workload reports every metric; a layer the workload does not cross
// reports 0.
func layerMetrics(l *loopResult, lad *ladderResult, tr *tracer, served bool) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Per-request layers from the traced windows, as means so that they
	// add up. In-process the engine's QueryStats split each request;
	// served, the server reports its exec wall and the ladder prices the
	// wire and the router hop around it.
	var sumD, sumCovered, sumScan, sumBuild, sumWall float64
	for _, r := range l.tracedReqs {
		d := us(r.d)
		covered := us(r.wall) + lad.parseUs
		if served {
			covered = us(r.wall) + lad.wireUs + lad.hopUs
		}
		sumD += d
		sumCovered += math.Min(covered, d)
		sumScan += us(r.scan)
		sumBuild += us(r.build)
		sumWall += us(r.wall)
	}
	n := float64(len(l.tracedReqs))
	put("sqlparse.parse_us", lad.parseUs, "us")
	if served {
		put("recache.overhead_us", lad.engineOverheadUs, "us")
		put("server.exec_us", ratio(sumWall, n), "us")
		put("exec.wall_us", lad.engineWallUs, "us")
		put("exec.cache_scan_us", lad.scanUs, "us")
		put("exec.cache_build_us", lad.buildUs, "us")
		put("exec.overhead", ratio(lad.buildUs, lad.engineWallUs), "fraction")
	} else {
		put("recache.overhead_us", ratio(sumD-sumWall, n), "us")
		put("server.exec_us", 0, "us")
		put("exec.wall_us", ratio(sumWall, n), "us")
		put("exec.cache_scan_us", ratio(sumScan, n), "us")
		put("exec.cache_build_us", ratio(sumBuild, n), "us")
		put("exec.overhead", ratio(sumBuild, sumWall), "fraction")
	}
	// The residual is the share of request time no layer accounts for:
	// in-process plan, rewrite and result boxing (all of the engine
	// overhead but parsing); served, waiting for a CPU or a connection.
	put("trace.residual_frac", ratio(sumD-sumCovered, sumD), "fraction")
	untraced := ratio(float64(l.mode[0].queries), l.mode[0].time.Seconds())
	tracedQPS := ratio(float64(l.mode[1].queries), l.mode[1].time.Seconds())
	put("trace.qps_traced_minus_untraced", tracedQPS-untraced, "1/s")

	put("runtime.allocs_per_query", ratio(float64(l.allocs), float64(l.attempted)), "count")
	put("runtime.gc_cpu_frac", ratio(l.gcCPU, l.cpu), "fraction")

	// Counters and busy times are per query, so that a run that answers
	// more queries does not read as one that works more per query. Cache
	// counters cover the whole loop; raw-file and refresh times only the
	// traced windows.
	c := l.cache
	q := float64(l.attempted)
	put("exec.vectorized_joins", ratio(float64(c.VectorizedJoins), q), "count/query")
	put("exec.join_probe_batches", ratio(float64(c.JoinProbeBatches), q), "count/query")
	for _, layer := range []string{"csvio", "jsonio"} {
		t := tr.rawTotals(layer)
		put(layer+".busy_ms", ratio(float64(t.self.Nanoseconds())/1e6, n), "ms/query")
		put(layer+".mb_per_s", ratio(float64(t.bytes)/1e6, t.self.Seconds()), "MB/s")
		put(layer+".skipped_frac", ratio(float64(t.skipped), float64(t.records+t.skipped)), "fraction")
	}
	put("share.consumers_per_scan", ratio(float64(c.SharedConsumers), float64(c.SharedScans)), "count")
	hits := float64(c.ExactHits + c.SubsumedHits)
	put("cache.hit_ratio", ratio(hits, hits+float64(c.Misses)), "fraction")
	put("cache.subsumed_hits", ratio(float64(c.SubsumedHits), q), "count/query")
	put("cache.evictions", ratio(float64(c.Evictions), q), "count/query")
	put("cache.spills", ratio(float64(c.Spills), q), "count/query")
	put("cache.disk_hit_ratio", ratio(float64(c.DiskHits), hits), "fraction")

	put("freshness.refresh_ms", ratio(float64(tr.refreshTotal().Nanoseconds())/1e6, n), "ms/query")
	put("freshness.tail_extensions", ratio(float64(c.TailExtensions), q), "count/query")
	put("freshness.stale_invalidations", ratio(float64(c.StaleInvalidations), q), "count/query")
	put("freshness.tail_bytes", ratio(float64(c.TailBytesScanned), q), "bytes/query")

	put("store.encode_us", lad.encodeUs, "us")
	put("store.decode_us", lad.decodeUs, "us")
	put("store.result_bytes", lad.resultB, "bytes")
	put("wire.roundtrip_us", lad.wireUs, "us")
	put("client.router_hop_us", lad.hopUs, "us")
	put("client.retries", float64(l.router.Retries), "count")
	put("client.failovers", float64(l.router.Failovers), "count")
	put("failed_frac", ratio(float64(l.failed), float64(l.attempted)), "fraction")
	return m
}
