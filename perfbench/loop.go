package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"recache"
	"recache/internal/client"
)

// clients is the closed loop's width: each client sends its next query
// only after the previous answer arrived.
const clients = 2

// traced is one request of a traced window.
type traced struct {
	d           time.Duration
	wall        time.Duration
	scan, build time.Duration
}

// loopResult is what one closed-loop run measured.
type loopResult struct {
	elapsed   time.Duration
	attempted int64
	failed    int64
	lat       []float64 // ms per attempted query, sorted; +Inf for a failure
	kept      []kept

	cache      recache.CacheStats // counter deltas over the loop
	router     client.RouterStats // counter deltas over the loop
	allocs     uint64
	gcCPU, cpu float64
	mode       [2]modeCount // [untraced, traced]; traced runs only
	tracedReqs []traced

	// Medians of the memory samples taken during the loop.
	heapMB, cacheMB float64
}

// memoryEvery is the memory sampling period of the loop.
const memoryEvery = 100 * time.Millisecond

// sampleMemory samples, until stop closes, the live heap as of the last
// GC and the bytes the cache holds in RAM and on disk. A median of such
// samples describes the run; a single snapshot at its end would depend on
// which entries happened to sit in RAM at that instant.
func sampleMemory(in *instance, stop <-chan struct{}) [2][]float64 {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var out [2][]float64
	tick := time.NewTicker(memoryEvery)
	defer tick.Stop()
	for {
		metrics.Read(live)
		if live[0].Value.Kind() == metrics.KindUint64 {
			out[0] = append(out[0], float64(live[0].Value.Uint64())/1e6)
		}
		s := in.cacheStats()
		out[1] = append(out[1], float64(s.TotalBytes+s.DiskBytes)/1e6)
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

type modeCount struct {
	queries int64
	time    time.Duration
}

// runLoop drives in with the closed loop for d. With tr set, requests
// started in traced windows are traced.
func runLoop(in *instance, d time.Duration, tr *tracer) (*loopResult, error) {
	res := &loopResult{}
	before := in.cacheStats()
	var rbefore client.RouterStats
	if in.router != nil {
		rbefore = in.router.RouterStats()
	}
	cpuBefore := cpuSamples()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocsBefore := ms.Mallocs

	var (
		next, done atomic.Int64
		wg         sync.WaitGroup
		mu         sync.Mutex
		firstErr   error
		lats       = make([][]float64, clients)
		keeps      = make([][]kept, clients)
		traces     = make([][]traced, clients)
		failed     = make([]int64, clients)
		counts     = make([][2]int64, clients)
	)
	if tr != nil {
		tr.tie = in.router == nil
		tr.on.Store(true)
		defer tr.on.Store(false)
	}
	start := time.Now()
	deadline := start.Add(d)
	stopSampling := make(chan struct{})
	sampled := make(chan [2][]float64)
	go func() { sampled <- sampleMemory(in, stopSampling) }()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if in.between != nil {
					if err := in.between(c, done.Load()); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
				i := next.Add(1) - 1
				sql := in.query(i)
				t0 := time.Now()
				on := tr != nil && tr.tracedAt(t0)
				var req uint64
				if on {
					req = tr.begin()
				}
				rep, err := in.exec(sql)
				t1 := time.Now()
				qd := t1.Sub(t0)
				if err != nil || qd > queryTimeout {
					failed[c]++
					lats[c] = append(lats[c], math.Inf(1))
				} else {
					lats[c] = append(lats[c], float64(qd.Nanoseconds())/1e6)
				}
				done.Add(1)
				if on {
					tr.end(req, t0, t1, rep.wall)
					traces[c] = append(traces[c], traced{qd, rep.wall, rep.scan, rep.build})
				}
				if tr != nil {
					m := 0
					if on {
						m = 1
					}
					counts[c][m]++
				}
				if err == nil && in.sampled(i) {
					keeps[c] = append(keeps[c], kept{sql, rep.rows})
				}
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	close(stopSampling)
	mem := <-sampled
	res.heapMB, res.cacheMB = median(mem[0]), median(mem[1])
	res.elapsed = end.Sub(start)
	if firstErr != nil {
		return nil, firstErr
	}

	for c := 0; c < clients; c++ {
		res.lat = append(res.lat, lats[c]...)
		res.kept = append(res.kept, keeps[c]...)
		res.tracedReqs = append(res.tracedReqs, traces[c]...)
		res.failed += failed[c]
		res.mode[0].queries += counts[c][0]
		res.mode[1].queries += counts[c][1]
	}
	sort.Float64s(res.lat)
	res.attempted = int64(len(res.lat))
	if tr != nil {
		res.mode[0].time, res.mode[1].time = tr.split(start, end)
	}

	after := in.cacheStats()
	res.cache = diffCache(after, before)
	if in.router != nil {
		a := in.router.RouterStats()
		res.router = client.RouterStats{Retries: a.Retries - rbefore.Retries, Failovers: a.Failovers - rbefore.Failovers}
	}
	runtime.ReadMemStats(&ms)
	res.allocs = ms.Mallocs - allocsBefore
	cpuAfter := cpuSamples()
	res.gcCPU = cpuAfter[0] - cpuBefore[0]
	res.cpu = cpuAfter[1] - cpuBefore[1]
	return res, nil
}

// add pools o into l: samples and traced requests are appended, counts
// and counter deltas summed.
func (l *loopResult) add(o *loopResult) {
	l.elapsed += o.elapsed
	l.attempted += o.attempted
	l.failed += o.failed
	l.lat = append(l.lat, o.lat...)
	l.tracedReqs = append(l.tracedReqs, o.tracedReqs...)
	c := &l.cache
	c.ExactHits += o.cache.ExactHits
	c.SubsumedHits += o.cache.SubsumedHits
	c.Misses += o.cache.Misses
	c.Evictions += o.cache.Evictions
	c.SharedScans += o.cache.SharedScans
	c.SharedConsumers += o.cache.SharedConsumers
	c.VectorizedJoins += o.cache.VectorizedJoins
	c.JoinProbeBatches += o.cache.JoinProbeBatches
	c.DiskHits += o.cache.DiskHits
	c.Spills += o.cache.Spills
	c.StaleInvalidations += o.cache.StaleInvalidations
	c.TailExtensions += o.cache.TailExtensions
	c.TailBytesScanned += o.cache.TailBytesScanned
	l.router.Retries += o.router.Retries
	l.router.Failovers += o.router.Failovers
	l.allocs += o.allocs
	l.gcCPU += o.gcCPU
	l.cpu += o.cpu
	for m := range l.mode {
		l.mode[m].queries += o.mode[m].queries
		l.mode[m].time += o.mode[m].time
	}
}

// diffCache subtracts the counters; gauges (TotalBytes, DiskBytes) keep
// their value at the end.
func diffCache(a, b recache.CacheStats) recache.CacheStats {
	return recache.CacheStats{
		ExactHits:          a.ExactHits - b.ExactHits,
		SubsumedHits:       a.SubsumedHits - b.SubsumedHits,
		Misses:             a.Misses - b.Misses,
		Evictions:          a.Evictions - b.Evictions,
		Inserted:           a.Inserted - b.Inserted,
		LazyUpgrades:       a.LazyUpgrades - b.LazyUpgrades,
		SharedScans:        a.SharedScans - b.SharedScans,
		SharedConsumers:    a.SharedConsumers - b.SharedConsumers,
		VectorizedJoins:    a.VectorizedJoins - b.VectorizedJoins,
		JoinProbeBatches:   a.JoinProbeBatches - b.JoinProbeBatches,
		DiskHits:           a.DiskHits - b.DiskHits,
		Spills:             a.Spills - b.Spills,
		StaleInvalidations: a.StaleInvalidations - b.StaleInvalidations,
		TailExtensions:     a.TailExtensions - b.TailExtensions,
		TailBytesScanned:   a.TailBytesScanned - b.TailBytesScanned,
		TotalBytes:         a.TotalBytes,
		DiskBytes:          a.DiskBytes,
	}
}

// cpuSamples reads the GC's CPU seconds and the total CPU seconds the Go
// runtime accounts for.
func cpuSamples() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}
