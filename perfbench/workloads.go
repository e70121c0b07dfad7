package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/csvio"
	"recache/internal/datagen"
	"recache/internal/jsonio"
	"recache/internal/plan"
	"recache/internal/server"
	"recache/internal/shard"
	"recache/internal/workload"
)

// queryTimeout is how long a query may take before it counts as failed.
const queryTimeout = 10 * time.Second

// reply is one answered query: its rows and the time the program itself
// reports for execution (QueryStats.Wall in-process, Result.Wall from a
// server). Scan and build are the engine's cache-scan and cache-build
// timers, known only in-process.
type reply struct {
	rows        [][]any
	wall        time.Duration
	scan, build time.Duration
}

// instance is one workload, set up and ready to drive.
type instance struct {
	files      map[string]int64 // generated file → bytes
	workingSet int64            // bytes the cache holds after set-up (or the probed footprint)
	ramBudget  int64            // 0 = unlimited
	conns      int              // client connections (0 in-process)

	// query returns the SQL of the i-th query of the run.
	query func(i int64) string
	// exec runs one query.
	exec func(sql string) (reply, error)
	// between runs on client c before each of its queries, given the
	// number of queries completed so far.
	between func(c int, done int64) error
	// sampled reports whether the i-th query's answer is kept for the
	// output check.
	sampled func(i int64) bool
	// verify checks the kept answers, and anything else the workload
	// promises, against a cache-less engine. It returns the number of
	// checks made and of checks failed.
	verify func(kept []kept) (checks, bad int, err error)

	engines []*recache.Engine // every engine serving the workload
	router  *client.Router    // nil in-process
	addrs   []string          // shard addresses, for the ladder's direct clients
	ladder  []string          // the seeded ladder sample
	close   func()
}

// kept is one answer kept for the output check.
type kept struct {
	sql  string
	rows [][]any
}

func (in *instance) cacheStats() recache.CacheStats {
	var s recache.CacheStats
	for _, e := range in.engines {
		c := e.CacheStats()
		s.ExactHits += c.ExactHits
		s.SubsumedHits += c.SubsumedHits
		s.Misses += c.Misses
		s.Evictions += c.Evictions
		s.Inserted += c.Inserted
		s.LazyUpgrades += c.LazyUpgrades
		s.SharedScans += c.SharedScans
		s.SharedConsumers += c.SharedConsumers
		s.VectorizedJoins += c.VectorizedJoins
		s.JoinProbeBatches += c.JoinProbeBatches
		s.DiskHits += c.DiskHits
		s.Spills += c.Spills
		s.DiskBytes += c.DiskBytes
		s.StaleInvalidations += c.StaleInvalidations
		s.TailExtensions += c.TailExtensions
		s.TailBytesScanned += c.TailBytesScanned
		s.TotalBytes += c.TotalBytes
	}
	return s
}

type setupFunc func(dir string, o options, tr *tracer) (*instance, error)

var workloads = map[string]setupFunc{
	"hit-local":     setupHitLocal,
	"cold-spill":    setupColdSpill,
	"served-append": setupServedAppend,
}

// table is one raw file registered under a name.
type table struct {
	name, path, schema string
	json               bool
}

func tpchTables(p *datagen.TPCHPaths, jsonLineitem bool) []table {
	li := table{"lineitem", p.Lineitem, datagen.LineitemSchema, false}
	if jsonLineitem {
		li = table{"lineitem", p.LineitemJSON, datagen.LineitemSchema, true}
	}
	return []table{
		li,
		{"orders", p.Orders, datagen.OrdersSchema, false},
		{"customer", p.Customer, datagen.CustomerSchema, false},
		{"partsupp", p.Partsupp, datagen.PartsuppSchema, false},
		{"part", p.Part, datagen.PartSchema, false},
	}
}

// wrap opens t's csvio or jsonio provider inside a tracedProvider.
func wrap(t table, tr *tracer) (*tracedProvider, plan.Format, error) {
	st, err := recache.ParseSchema(t.schema)
	if err != nil {
		return nil, "", err
	}
	if t.json {
		p, err := jsonio.New(t.path, st)
		if err != nil {
			return nil, "", err
		}
		return &tracedProvider{inner: p, layer: "jsonio", tr: tr}, plan.FormatJSON, nil
	}
	p, err := csvio.New(t.path, st, csvio.Options{Delim: '|'})
	if err != nil {
		return nil, "", err
	}
	return &tracedProvider{inner: p, layer: "csvio", tr: tr}, plan.FormatCSV, nil
}

// wrapped is a table's traced provider, ready to register.
type wrapped struct {
	name   string
	format plan.Format
	prov   *tracedProvider
}

func wrapAll(tables []table, tr *tracer) ([]wrapped, error) {
	var out []wrapped
	for _, t := range tables {
		p, format, err := wrap(t, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, wrapped{t.name, format, p})
	}
	return out, nil
}

func register(eng *recache.Engine, ws []wrapped) error {
	for _, w := range ws {
		if err := eng.RegisterProvider(w.name, w.format, w.prov); err != nil {
			return err
		}
	}
	return nil
}

func registerWrapped(eng *recache.Engine, tables []table, tr *tracer) error {
	ws, err := wrapAll(tables, tr)
	if err != nil {
		return err
	}
	return register(eng, ws)
}

// noCacheEngine opens the output check's reference: caching off, the
// plain providers, the same files.
func noCacheEngine(tables []table) (*recache.Engine, error) {
	eng, err := recache.Open(recache.Config{Admission: "off"})
	if err != nil {
		return nil, err
	}
	for _, t := range tables {
		if t.json {
			err = eng.RegisterJSON(t.name, t.path, t.schema)
		} else {
			err = eng.RegisterCSV(t.name, t.path, t.schema, '|')
		}
		if err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

// verifyKept re-runs each kept query on a cache-less engine and counts
// answers that differ.
func verifyKept(tables []table, ks []kept) (checks, bad int, err error) {
	ref, err := noCacheEngine(tables)
	if err != nil {
		return 0, 0, err
	}
	defer ref.Close()
	for _, k := range ks {
		want, err := ref.Query(k.sql)
		if err == nil {
			err = sameRows(k.rows, want.Rows)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: wrong answer for %q: %v\n", k.sql, err)
			bad++
		}
	}
	return len(ks), bad, nil
}

func fileSizes(tables []table) map[string]int64 {
	out := map[string]int64{}
	for _, t := range tables {
		if fi, err := os.Stat(t.path); err == nil {
			out[filepath.Base(t.path)] = fi.Size()
		}
	}
	return out
}

// sampleOf draws n distinct entries of pool, seeded.
func sampleOf(pool []string, n int, seed int64) []string {
	perm := rand.New(rand.NewSource(seed)).Perm(len(pool))
	if n > len(pool) {
		n = len(pool)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = pool[perm[i]]
	}
	return out
}

// embedded serves the instance's queries from one in-process engine.
func embedded(in *instance, eng *recache.Engine) {
	in.engines = []*recache.Engine{eng}
	in.exec = func(sql string) (reply, error) {
		r, err := eng.Query(sql)
		if err != nil {
			return reply{}, err
		}
		return reply{rows: r.Rows, wall: r.Stats.Wall, scan: r.Stats.CacheScan, build: r.Stats.CacheBuild}, nil
	}
}

// warm runs pool until a full pass inserts and upgrades no cache entry.
func warm(pool []string, run func(string) error, stats func() recache.CacheStats) error {
	const maxPasses = 16
	for pass := 0; pass < maxPasses; pass++ {
		before := stats()
		for _, q := range pool {
			if err := run(q); err != nil {
				return fmt.Errorf("warm-up %q: %w", q, err)
			}
		}
		after := stats()
		if after.Inserted == before.Inserted && after.LazyUpgrades == before.LazyUpgrades {
			return nil
		}
	}
	return fmt.Errorf("warm-up: cache still changing after %d passes", maxPasses)
}

// genTPCH writes the TPC-H tables at scale factor 0.01 (lineitem ≈2.7 MB
// as CSV, ≈10 MB as JSON), times o.scale.
func genTPCH(dir string, o options) (*datagen.TPCHPaths, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return datagen.TPCH(dir, 0.01*o.scale, o.seed)
}

// setupHitLocal: the default engine over TPC-H CSV, warmed with a fixed
// pool of 32 SPJ queries and 32 lineitem SPA ranges until it stops
// caching. Every measured query is a cache hit.
func setupHitLocal(dir string, o options, tr *tracer) (*instance, error) {
	paths, err := genTPCH(dir, o)
	if err != nil {
		return nil, err
	}
	tables := tpchTables(paths, false)
	eng, err := recache.Open(recache.Config{})
	if err != nil {
		return nil, err
	}
	in := &instance{files: fileSizes(tables), close: func() { eng.Close() }}
	embedded(in, eng)
	if err := registerWrapped(eng, tables, tr); err != nil {
		in.close()
		return nil, err
	}
	pool := jitter(append(workload.SPJ(workload.DefaultTPCHTables(), 32, templateSeed),
		workload.PhasedSPA("lineitem", workload.TPCHAttrs()["lineitem"], 32, workload.PhaseSwitch, templateSeed+1)...),
		tpchCols(), o.seed)
	run := func(q string) error { _, err := eng.Query(q); return err }
	if err := warm(pool, run, eng.CacheStats); err != nil {
		in.close()
		return nil, err
	}
	s := eng.CacheStats()
	in.workingSet = s.TotalBytes + s.DiskBytes
	// The loop cycles through a seeded shuffle in which every SPA query
	// comes three times and every SPJ query once. SPA hits are then three
	// quarters of the queries, so they set p50 and the SPJ join hits set
	// p99; with an even split p50 would fall on the border between the two.
	var cycle []string
	for i, q := range pool {
		cycle = append(cycle, q)
		if i >= 32 {
			cycle = append(cycle, q, q)
		}
	}
	rand.New(rand.NewSource(o.seed+2)).Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	in.query = func(i int64) string { return cycle[i%int64(len(cycle))] }
	// The runs of 16 seeded pool entries in the first cycle are checked.
	checked := map[string]bool{}
	for _, q := range sampleOf(pool, 16, o.seed+3) {
		checked[q] = true
	}
	in.sampled = func(i int64) bool { return i < int64(len(cycle)) && checked[in.query(i)] }
	in.verify = func(ks []kept) (int, int, error) { return verifyKept(tables, ks) }
	in.ladder = sampleOf(pool, 16, o.seed+4)
	return in, nil
}

// templateSeed seeds the query templates: join shapes, aggregates,
// predicate columns and range widths are the same in every run. The run's
// seed generates the data and moves every range (jitter). Without this,
// two seeds would differ mostly in how many wide joins their pool happens
// to draw, and that spread would swamp any change worth measuring.
const templateSeed = 20170901

var betweenRE = regexp.MustCompile(`(\w+) BETWEEN (\S+) AND (\S+)`)

// jitter shifts each range predicate of qs by a seeded offset of up to 2%
// of its column's span (cols), keeping the range's width.
func jitter(qs []string, cols map[string]workload.Attr, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = betweenRE.ReplaceAllStringFunc(q, func(m string) string {
			p := betweenRE.FindStringSubmatch(m)
			a, ok := cols[p[1]]
			lo, err1 := strconv.ParseFloat(p[2], 64)
			hi, err2 := strconv.ParseFloat(p[3], 64)
			if !ok || err1 != nil || err2 != nil {
				return m
			}
			d := (2*rng.Float64() - 1) * 0.02 * (a.Max - a.Min)
			return fmt.Sprintf("%s BETWEEN %s AND %s", p[1], bound(lo+d, a.Integer), bound(hi+d, a.Integer))
		})
	}
	return out
}

// tpchCols maps every TPC-H predicate column to its range.
func tpchCols() map[string]workload.Attr {
	cols := map[string]workload.Attr{}
	for _, attrs := range workload.TPCHAttrs() {
		for _, a := range attrs {
			cols[a.Name] = a
		}
	}
	return cols
}

// queryAll runs qs on eng one after another. Set-up runs its queries on
// one goroutine: with two, shared scans and admission would race, and the
// set-up's work would change from run to run.
func queryAll(eng *recache.Engine, qs []string) error {
	for _, q := range qs {
		if _, err := eng.Query(q); err != nil {
			return fmt.Errorf("%q: %w", q, err)
		}
	}
	return nil
}

// coldSpillStream is the number of distinct SPJ queries a cold-spill
// sub-run draws from; one that outruns it (over 500 queries per second)
// wraps around and starts hitting.
const coldSpillStream = 4096

// coldSpillWarm is how many queries of the stream the set-up runs.
const coldSpillWarm = 256

// setupColdSpill: the paper's Fig. 14 set-up. Lineitem is JSON, the other
// tables CSV; every query is a fresh SPJ query; RAM holds a tenth of the
// footprint an unlimited cache reaches on a probe of the stream, and
// evicted entries spill to disk.
func setupColdSpill(dir string, o options, tr *tracer) (*instance, error) {
	paths, err := genTPCH(dir, o)
	if err != nil {
		return nil, err
	}
	tables := tpchTables(paths, true)
	names := workload.DefaultTPCHTables()

	// Footprint probe: 48 queries of another SPJ stream on an unlimited
	// cache. The providers are shared with the measured engine, so the
	// probe also builds their positional maps: the measured loop starts
	// with a cold cache, not with unread files.
	ws, err := wrapAll(tables, tr)
	if err != nil {
		return nil, err
	}
	probe, err := recache.Open(recache.Config{})
	if err != nil {
		return nil, err
	}
	if err := register(probe, ws); err != nil {
		probe.Close()
		return nil, err
	}
	if err := queryAll(probe, jitter(workload.SPJ(names, 48, templateSeed+5), tpchCols(), o.seed+5)); err != nil {
		probe.Close()
		return nil, fmt.Errorf("footprint probe: %w", err)
	}
	ps := probe.CacheStats()
	footprint := ps.TotalBytes + ps.DiskBytes
	probe.Close()

	budget := footprint / 10
	if budget < 1 {
		budget = 1
	}
	eng, err := recache.Open(recache.Config{
		CacheCapacity:  budget,
		SpillDir:       filepath.Join(dir, "spill"),
		DiskCacheBytes: footprint,
	})
	if err != nil {
		return nil, err
	}
	in := &instance{
		files:      fileSizes(tables),
		workingSet: footprint,
		ramBudget:  budget,
		close:      func() { eng.Close() },
	}
	embedded(in, eng)
	if err := register(eng, ws); err != nil {
		in.close()
		return nil, err
	}
	stream := jitter(workload.SPJ(names, coldSpillStream, templateSeed), tpchCols(), o.seed)
	// The first coldSpillWarm queries fill RAM and the disk tier, so the
	// loop measures the steady state rather than the first seconds, in
	// which the hit ratio still climbs.
	if err := queryAll(eng, stream[:coldSpillWarm]); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	stream = stream[coldSpillWarm:]
	in.query = func(i int64) string { return stream[i%int64(len(stream))] }
	// Every 32nd query from a seeded offset, up to 16 of them.
	off := rand.New(rand.NewSource(o.seed + 3)).Int63n(32)
	in.sampled = func(i int64) bool { return i%32 == off && i/32 < 16 }
	in.verify = func(ks []kept) (int, int, error) { return verifyKept(tables, ks) }
	in.ladder = sampleOf(stream[:1024], 8, o.seed+4)
	return in, nil
}

const (
	appendEvery = 32 // queries completed per appended batch
	appendRows  = 32 // rows per appended batch
)

// setupServedAppend: a two-shard fleet in-process, each shard a
// server.Server on a unix socket wired as `recached -fleet ... -spill-dir
// ... -freshness check-on-access` wires itself. One router with one
// connection per shard serves both clients; client 0 appends 32 rows to
// the lineitem CSV every 32 completed queries.
func setupServedAppend(dir string, o options, tr *tracer) (*instance, error) {
	paths, err := genTPCH(dir, o)
	if err != nil {
		return nil, err
	}
	li := table{"lineitem", paths.Lineitem, datagen.LineitemSchema, false}
	rows, err := countLines(paths.Lineitem)
	if err != nil {
		return nil, err
	}
	orders, err := countLines(paths.Orders)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(dir, 2, li, tr)
	if err != nil {
		return nil, err
	}
	in := &instance{files: fileSizes([]table{li}), conns: 2, engines: f.engines, addrs: f.addrs}
	rt, err := client.DialRouterOpts(f.addrs, client.RouterOptions{
		Options: client.Options{PoolSize: 1, RequestTimeout: queryTimeout},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	in.router = rt
	app, err := os.OpenFile(li.path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		rt.Close()
		f.close()
		return nil, err
	}
	in.close = func() {
		app.Close()
		rt.Close()
		f.close()
	}
	in.exec = func(sql string) (reply, error) {
		r, err := rt.Query(sql)
		if err != nil {
			return reply{}, err
		}
		return reply{rows: r.Rows, wall: r.Wall}, nil
	}

	pool := servedPool(orders, o.seed)
	run := func(q string) error { _, err := rt.Query(q); return err }
	if err := warm(pool, run, in.cacheStats); err != nil {
		in.close()
		return nil, err
	}
	s := in.cacheStats()
	in.workingSet = s.TotalBytes + s.DiskBytes
	order := rand.New(rand.NewSource(o.seed + 2)).Perm(len(pool))
	in.query = func(i int64) string { return pool[order[i%int64(len(pool))]] }
	in.ladder = sampleOf(pool, 12, o.seed+4)

	// Client 0 is the appender: before each of its queries it writes the
	// batches the completed-query count calls for. Appends follow query
	// progress, not the clock, so every run absorbs the same appends per
	// query.
	var appended int64
	nextKey := orders + 1
	arng := rand.New(rand.NewSource(o.seed + 6))
	in.between = func(c int, done int64) error {
		for c == 0 && done/appendEvery > appended/appendRows {
			var buf []byte
			for r := 0; r < appendRows; r++ {
				buf = appendLineitemRow(buf, arng, nextKey, r%7+1)
				if r%7 == 6 {
					nextKey++
				}
			}
			nextKey++
			if _, err := app.Write(buf); err != nil {
				return err
			}
			appended += appendRows
		}
		return nil
	}
	// The check runs on the final file, after the appender stopped: every
	// pool query through the router against a cache-less engine, and
	// COUNT(*) against the rows written.
	in.sampled = func(int64) bool { return false }
	in.verify = func([]kept) (int, int, error) {
		var ks []kept
		failed := 0
		for _, q := range pool {
			r, err := rt.Query(q)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: final-state query %q: %v\n", q, err)
				failed++
				continue
			}
			ks = append(ks, kept{q, r.Rows})
		}
		checks, bad, err := verifyKept([]table{li}, ks)
		if err != nil {
			return 0, 0, err
		}
		want := int64(rows) + appended
		r, err := rt.Query("SELECT COUNT(*) FROM lineitem")
		if err != nil || len(r.Rows) != 1 || !sameNumber(r.Rows[0][0], want) {
			fmt.Fprintf(os.Stderr, "perfbench: final COUNT(*) = %v (%v), want %d initial + %d appended rows\n",
				r, err, rows, appended)
			bad++
		}
		return checks + failed + 1, bad + failed, nil
	}
	return in, nil
}

// servedPool is served-append's query pool: 16 range aggregates and 8
// row-returning projections over lineitem, from templates jittered by
// seed.
func servedPool(orders int, seed int64) []string {
	rng := rand.New(rand.NewSource(templateSeed + 2))
	attrs := workload.TPCHAttrs()["lineitem"]
	aggs := []string{"COUNT(*)", "SUM(l_extendedprice)", "AVG(l_discount)", "MAX(l_tax)", "MIN(l_shipdate)"}
	var pool []string
	for i := 0; i < 16; i++ {
		a := attrs[rng.Intn(len(attrs))]
		lo := a.Min + rng.Float64()*(a.Max-a.Min)*0.8
		hi := lo + (a.Max-a.Min)*(0.05+0.15*rng.Float64())
		pool = append(pool, fmt.Sprintf("SELECT %s, %s FROM lineitem WHERE %s BETWEEN %s AND %s",
			aggs[i%len(aggs)], aggs[(i+2)%len(aggs)], a.Name, bound(lo, a.Integer), bound(hi, a.Integer)))
	}
	for i := 0; i < 8; i++ {
		lo := 64 + rng.Intn(orders-128)
		pool = append(pool, fmt.Sprintf(
			"SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice FROM lineitem WHERE l_orderkey BETWEEN %d AND %d",
			lo, lo+8+rng.Intn(40)))
	}
	cols := tpchCols()
	cols["l_orderkey"] = workload.Attr{Name: "l_orderkey", Min: 1, Max: float64(orders), Integer: true}
	return jitter(pool, cols, seed)
}

func bound(v float64, integer bool) string {
	if integer {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// countLines counts the rows of a generated file.
func countLines(path string) (int, error) {
	b, err := os.ReadFile(path)
	return bytes.Count(b, []byte{'\n'}), err
}

// appendLineitemRow appends one lineitem row in the generator's shape.
func appendLineitemRow(buf []byte, rng *rand.Rand, order, line int) []byte {
	buf = strconv.AppendInt(buf, int64(order), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(1+rng.Intn(2000)), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(1+rng.Intn(100)), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(line), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(1+rng.Intn(50)), 10)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, 900+rng.Float64()*100000, 'f', 2, 64)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, float64(rng.Intn(11))/100, 'f', 2, 64)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, float64(rng.Intn(9))/100, 'f', 2, 64)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(19920101+rng.Intn(70000)), 10)
	return append(buf, '\n')
}

// fleet is an in-process shard fleet.
type fleet struct {
	addrs   []string
	engines []*recache.Engine
	servers []*server.Server
	flights []*client.Flight
	served  []chan error
	socks   []string
}

// startFleet brings up n shards, each wired as cmd/recached wires itself
// in fleet mode with a spill directory and check-on-access freshness, with
// lineitem registered through a traced provider.
func startFleet(dir string, n int, li table, tr *tracer) (*fleet, error) {
	infos := make([]shard.Info, n)
	f := &fleet{}
	for i := range infos {
		sock := filepath.Join(dir, fmt.Sprintf("s%d.sock", i))
		f.socks = append(f.socks, sock)
		infos[i] = shard.Info{ID: i, Addr: "unix:" + sock}
		f.addrs = append(f.addrs, infos[i].Addr)
	}
	m, err := shard.NewMap(infos)
	if err != nil {
		return nil, err
	}
	for i := range infos {
		leases := shard.NewLeaseTable()
		fl := client.NewFlight(i, m, leases, 0, client.Options{})
		f.flights = append(f.flights, fl)
		eng, err := recache.Open(recache.Config{
			Eviction:      "recache",
			Admission:     "adaptive",
			Layout:        "auto",
			SpillDir:      filepath.Join(dir, fmt.Sprintf("spill%d", i)),
			FreshnessMode: "check-on-access",
			RemoteFlight:  fl.Materialize,
			OnEagerAdmit:  fl.ReplicateAsync,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.engines = append(f.engines, eng)
		if err := registerWrapped(eng, []table{li}, tr); err != nil {
			f.close()
			return nil, err
		}
		srv := server.New(eng)
		srv.SetFleet(i, m, leases)
		srv.OnTopology(fl.UpdateMap)
		ln, err := net.Listen("unix", f.socks[i])
		if err != nil {
			f.close()
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		f.servers = append(f.servers, srv)
		f.served = append(f.served, served)
	}
	return f, nil
}

// close drains the servers, then the flights and engines.
func (f *fleet) close() {
	for i, srv := range f.servers {
		srv.Shutdown()
		if err := <-f.served[i]; err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}
	for _, fl := range f.flights {
		fl.Close()
	}
	for _, eng := range f.engines {
		eng.Close()
	}
	for _, s := range f.socks {
		os.Remove(s)
	}
}
