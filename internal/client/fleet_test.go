package client_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"recache"
	"recache/internal/client"
	"recache/internal/server"
	"recache/internal/shard"
)

const fleetSchema = "id int, qty int, price float, name string"

func fleetCSV(t *testing.T, rows int) string {
	t.Helper()
	var b []byte
	for i := 1; i <= rows; i++ {
		b = fmt.Appendf(b, "%d|%d|%d.5|name%d\n", i, (i%5+1)*10, i, i)
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testFleet is an in-process shard fleet: one engine+server per shard, all
// wired with the shared lease table and the Flight hook exactly as
// `recached -fleet ... -shard-id N` wires a real process.
type testFleet struct {
	m       *shard.Map
	addrs   []string
	engines []*recache.Engine
	servers []*server.Server
}

// startFleet launches n shards on unix sockets, each serving its own
// engine with table t registered, and returns the running fleet. Shard i's
// cleanup-ordering matters: servers drain before engines close.
func startFleet(t *testing.T, n int, csvPath string) *testFleet {
	t.Helper()
	dir := t.TempDir()
	infos := make([]shard.Info, n)
	for i := range infos {
		infos[i] = shard.Info{ID: i, Addr: "unix:" + filepath.Join(dir, fmt.Sprintf("s%d.sock", i))}
	}
	m, err := shard.NewMap(infos)
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{m: m}
	for i, s := range infos {
		f.addrs = append(f.addrs, s.Addr)
		lt := shard.NewLeaseTable()
		fl := client.NewFlight(i, m, lt, 0, client.Options{})
		t.Cleanup(func() { fl.Close() })
		eng, err := recache.Open(recache.Config{
			Admission:    "eager",
			RemoteFlight: fl.Materialize,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		if csvPath != "" {
			if err := eng.RegisterCSV("t", csvPath, fleetSchema, '|'); err != nil {
				t.Fatal(err)
			}
		}
		srv := server.New(eng)
		srv.SetFleet(i, m, lt)
		ln, err := net.Listen("unix", strings.TrimPrefix(s.Addr, "unix:"))
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		t.Cleanup(func() {
			srv.Shutdown()
			if err := <-served; err != nil {
				t.Errorf("shard %d: Serve: %v", i, err)
			}
		})
		f.engines = append(f.engines, eng)
		f.servers = append(f.servers, srv)
	}
	return f
}

func dialRouter(t *testing.T, addrs []string) *client.Router {
	t.Helper()
	r, err := client.DialRouterOpts(addrs, client.RouterOptions{Options: client.Options{RequestTimeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// Queries through the router must match an embedded engine, and each must
// execute on exactly the shard ShardFor names — the one whose cache will
// hold its entry.
func TestRouterRoutesToOwner(t *testing.T) {
	csvPath := fleetCSV(t, 200)
	f := startFleet(t, 3, csvPath)
	r := dialRouter(t, f.addrs)

	ref, err := recache.Open(recache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.RegisterCSV("t", csvPath, fleetSchema, '|'); err != nil {
		t.Fatal(err)
	}

	owned := make(map[int]int)
	for i := 0; i < 20; i++ {
		lo := i*10 + 1
		sql := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE id BETWEEN %d AND %d", lo, lo+9)
		sid := r.ShardFor(sql)
		if sid < 0 || sid >= 3 {
			t.Fatalf("ShardFor(%q) = %d", sql, sid)
		}
		before := make([]int64, 3)
		for s, eng := range f.engines {
			before[s] = eng.CacheStats().Queries
		}
		want, err := ref.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s: rows %v, want %v", sql, got.Rows, want.Rows)
		}
		for s, eng := range f.engines {
			delta := eng.CacheStats().Queries - before[s]
			if s == sid && delta != 1 {
				t.Fatalf("%s: owner shard %d saw %d queries, want 1", sql, s, delta)
			}
			if s != sid && delta != 0 {
				t.Fatalf("%s: non-owner shard %d saw %d queries (request bleed)", sql, s, delta)
			}
		}
		owned[sid]++
	}
	// Rendezvous hashing should spread 20 keys over 3 shards; a shard with
	// zero keys means the hash mix is broken.
	for s := 0; s < 3; s++ {
		if owned[s] == 0 {
			t.Fatalf("shard %d owns no keys out of 20: %v", s, owned)
		}
	}

	// Registration broadcasts: after registering through the router, the
	// table must be queryable no matter which shard a predicate hashes to.
	if err := r.RegisterCSV("u", csvPath, fleetSchema, '|'); err != nil {
		t.Fatalf("broadcast register: %v", err)
	}
	for i := 0; i < 6; i++ {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM u WHERE qty = %d", (i%5+1)*10)
		if _, err := r.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	tables, err := r.Tables()
	if err != nil || !reflect.DeepEqual(tables, []string{"t", "u"}) {
		t.Fatalf("tables: %v, %v", tables, err)
	}
	if stats, err := r.StatsAll(); err != nil || len(stats) != 3 {
		t.Fatalf("stats-all: %d shards, %v", len(stats), err)
	}
	ts, err := r.TableStats("t")
	if err != nil || ts.RawScans < 3 {
		t.Fatalf("summed table stats: %+v, %v", ts, err)
	}
}

// The fleet wire op: any member reports the full topology, DialFleetOpts
// discovers the fleet from one seed, and a daemon outside any fleet
// refuses the op.
func TestFleetDiscovery(t *testing.T) {
	f := startFleet(t, 3, fleetCSV(t, 50))

	cl, err := client.Dial(f.addrs[1], client.Options{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	topo, err := cl.Fleet()
	if err != nil {
		t.Fatalf("fleet op: %v", err)
	}
	if topo.Self != 1 || len(topo.Shards) != 3 {
		t.Fatalf("topology: self=%d shards=%d", topo.Self, len(topo.Shards))
	}
	for i, s := range topo.Shards {
		if int(s.ID) != i || s.Addr != f.addrs[i] {
			t.Fatalf("shard %d: %+v, want id=%d addr=%s", i, s, i, f.addrs[i])
		}
	}

	r, err := client.DialFleetOpts(f.addrs[2], client.RouterOptions{Options: client.Options{RequestTimeout: 5 * time.Second}})
	if err != nil {
		t.Fatalf("DialFleetOpts: %v", err)
	}
	defer r.Close()
	if r.Shards() != 3 {
		t.Fatalf("discovered %d shards, want 3", r.Shards())
	}
	if err := r.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Query("SELECT COUNT(*) FROM t WHERE qty = 20"); err != nil {
		t.Fatal(err)
	}

	// A daemon launched without -fleet must refuse the op (and so refuse
	// discovery) rather than claim to be a one-shard fleet.
	solo, err := recache.Open(recache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	sock := filepath.Join(t.TempDir(), "solo.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	soloSrv := server.New(solo)
	go soloSrv.Serve(ln)
	defer soloSrv.Shutdown()
	scl, err := client.Dial("unix:"+sock, client.Options{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer scl.Close()
	if _, err := scl.Fleet(); err == nil || !strings.Contains(err.Error(), "fleet") {
		t.Fatalf("fleet op on solo daemon: %v, want not-part-of-a-fleet error", err)
	}
	if _, err := client.DialFleetOpts("unix:"+sock, client.RouterOptions{Options: client.Options{RequestTimeout: 5 * time.Second}}); err == nil {
		t.Fatal("DialFleetOpts against a solo daemon succeeded")
	}
}

// Killing one shard mid-burst must be invisible to callers: queries owned
// by survivors keep succeeding with correct rows, queries owned by the
// dead shard fail over to its replica (which raw-scans and serves the
// correct count — every shard knows every table), and nothing hangs.
func TestRouterShardFailover(t *testing.T) {
	f := startFleet(t, 3, fleetCSV(t, 300))
	r, err := client.DialRouterOpts(f.addrs, client.RouterOptions{Options: client.Options{RequestTimeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	type probe struct {
		sql   string
		shard int
	}
	var probes []probe
	for i := 0; i < 30; i++ {
		lo := i*10 + 1
		sql := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE id BETWEEN %d AND %d", lo, lo+9)
		probes = append(probes, probe{sql, r.ShardFor(sql)})
	}
	// Warm pass: the whole working set must serve before the failure.
	for _, p := range probes {
		res, err := r.Query(p.sql)
		if err != nil {
			t.Fatalf("warm %s: %v", p.sql, err)
		}
		if got := res.Rows[0][0].(int64); got != 10 {
			t.Fatalf("warm %s: count %d", p.sql, got)
		}
	}

	const dead = 1
	var perShard [3]int
	for _, p := range probes {
		perShard[p.shard]++
	}
	for s, n := range perShard {
		if n == 0 {
			t.Fatalf("shard %d owns none of the %d probes: %v", s, len(probes), perShard)
		}
	}

	// Burst with the failure injected mid-flight: half the attempts run
	// before the kill, half after the barrier behind it.
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		killed  = make(chan struct{})
		outcome = make(map[string][]error)
	)
	record := func(sql string, err error) {
		mu.Lock()
		outcome[sql] = append(outcome[sql], err)
		mu.Unlock()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, p := range probes {
				if (i+w)%2 == 1 {
					<-killed // second half waits for the failure
				}
				got, qerr := r.Query(p.sql)
				if qerr == nil && got.Rows[0][0].(int64) != 10 {
					qerr = fmt.Errorf("wrong count %v", got.Rows[0][0])
				}
				record(p.sql, qerr)
			}
		}(w)
	}
	f.servers[dead].Shutdown()
	close(killed)
	wg.Wait()

	// A shard death is a retryable fault, and retryable faults never reach
	// the caller: every attempt — dead-shard keys included — must have
	// succeeded with the right count, served via failover.
	for _, p := range probes {
		for _, err := range outcome[p.sql] {
			if err != nil {
				t.Errorf("shard %d: %s: %v", p.shard, p.sql, err)
			}
		}
	}
	if rs := r.RouterStats(); rs.Failovers == 0 {
		t.Errorf("no failovers recorded despite a dead shard: %+v", rs)
	}

	// The fleet minus its dead member still serves every surviving key.
	for _, p := range probes {
		if p.shard == dead {
			continue
		}
		if _, err := r.Query(p.sql); err != nil {
			t.Fatalf("post-failure %s: %v", p.sql, err)
		}
	}
}

// Connection churn: routers dialing and closing concurrently while
// querying must neither race nor leak wedged requests.
func TestRouterConnectionChurn(t *testing.T) {
	f := startFleet(t, 2, fleetCSV(t, 100))
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				r, err := client.DialRouterOpts(f.addrs, client.RouterOptions{Options: client.Options{RequestTimeout: 5 * time.Second}})
				if err != nil {
					errCh <- err
					return
				}
				for j := 0; j < 3; j++ {
					sql := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE id BETWEEN %d AND %d", (w*5+j)%90+1, (w*5+j)%90+10)
					if _, err := r.Query(sql); err != nil {
						errCh <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
						r.Close()
						return
					}
				}
				r.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// Remote single-flight: while another process holds a key's build lease,
// a shard that misses on that key executes raw WITHOUT admitting the
// entry; once the lease is released the next miss builds normally.
func TestRemoteSingleFlightLease(t *testing.T) {
	f := startFleet(t, 2, fleetCSV(t, 100))
	sql := "SELECT COUNT(*) FROM t WHERE qty = 30"
	key := shard.RouteKey(sql)
	owner := f.m.Owner(key).ID
	victim := 1 - owner

	ocl, err := client.Dial(f.addrs[owner], client.Options{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer ocl.Close()
	vcl, err := client.Dial(f.addrs[victim], client.Options{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vcl.Close()

	// A foreign holder takes the build lease from the owner.
	const foreign = 0xF00
	l, err := ocl.LeaseAcquire(key, foreign, 5*time.Second)
	if err != nil || !l.Granted {
		t.Fatalf("foreign lease: %+v, %v", l, err)
	}

	// The victim shard misses, asks the owner, is denied — and must still
	// answer correctly, from a raw scan, without admitting.
	res, err := vcl.Query(sql)
	if err != nil {
		t.Fatalf("query under foreign lease: %v", err)
	}
	if got := res.Rows[0][0].(int64); got != 20 {
		t.Fatalf("raw-path count = %d, want 20", got)
	}
	if ins := f.engines[victim].CacheStats().Inserted; ins != 0 {
		t.Fatalf("victim admitted %d entries while the lease was held elsewhere", ins)
	}

	// Release; the next miss acquires the lease and builds.
	if err := ocl.LeaseRelease(key, foreign); err != nil {
		t.Fatal(err)
	}
	if _, err := vcl.Query(sql); err != nil {
		t.Fatal(err)
	}
	if ins := f.engines[victim].CacheStats().Inserted; ins != 1 {
		t.Fatalf("victim Inserted = %d after release, want 1", ins)
	}
}

// A holder that dies without releasing must not wedge the key: the lease
// expires on the owner and the next miss proceeds.
func TestLeaseExpiryUnwedges(t *testing.T) {
	f := startFleet(t, 2, fleetCSV(t, 100))
	sql := "SELECT COUNT(*) FROM t WHERE qty = 40"
	key := shard.RouteKey(sql)
	owner := f.m.Owner(key).ID
	victim := 1 - owner

	ocl, err := client.Dial(f.addrs[owner], client.Options{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer ocl.Close()
	vcl, err := client.Dial(f.addrs[victim], client.Options{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer vcl.Close()

	if l, err := ocl.LeaseAcquire(key, 0xDEAD, 50*time.Millisecond); err != nil || !l.Granted {
		t.Fatalf("lease: %+v, %v", l, err)
	}
	if _, err := vcl.Query(sql); err != nil {
		t.Fatal(err)
	}
	if ins := f.engines[victim].CacheStats().Inserted; ins != 0 {
		t.Fatalf("victim admitted %d entries under a live foreign lease", ins)
	}
	// The holder never releases. After the TTL the key must be buildable.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := vcl.Query(sql); err != nil {
			t.Fatal(err)
		}
		if f.engines[victim].CacheStats().Inserted == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired; victim still cannot build")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
