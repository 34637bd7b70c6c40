// Command perfbench is Sedna's benchmark. It boots one coordination member
// and three data nodes in this process on real TCP loopback, drives the
// client API from GOMAXPROCS closed-loop callers, audits every acked value
// at the end, and prints one JSON result line. See README.md.
//
//	perfbench --workload kv_read_heavy --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	mrand "math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sedna/internal/client"
	"sedna/internal/kv"
)

const (
	// setups is how many times a run boots and preloads a cluster; setup_s
	// is their median and the last one is measured.
	setups = 3
	// warmup runs the load before the measured window, so ring leases,
	// connections and pools are in place.
	warmup = time.Second
	// e2eSamples bounds each end-to-end latency series.
	e2eSamples = 1 << 17
	// maxLogged caps the failures printed to standard error.
	maxLogged = 10
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "kv_read_heavy | kv_durable_write | trigger_pipeline")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead")
	flag.Parse()
	if !workloads[*wl] || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload kv_read_heavy|kv_durable_write|trigger_pipeline, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	dataRoot, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-data", fmt.Sprint(os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newRun(*wl, *seed, *seconds, dataRoot)
	var res result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.endToEnd()
	}
	if rmErr := os.RemoveAll(dataRoot); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checks failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// run is one benchmark invocation.
type run struct {
	wl       string
	seed     uint64
	seconds  int
	callers  int
	durable  bool
	dataRoot string
	tr       *tracer

	c    *cluster
	keys []kv.Key
	perm []int          // zipf rank -> key index
	ver  []atomic.Int64 // kv_durable_write: last acked version, -1 unknown
	flow *flow          // the crawl inputs; empty on the kv workloads

	reads, writes, lags *samples
	measuring           atomic.Bool
	completed           atomic.Int64
	attempted, failed   atomic.Int64
	written             atomic.Int64 // bytes of writes acked while tracing

	errMu  sync.Mutex
	logged int
}

func newRun(wl string, seed uint64, seconds int, dataRoot string) *run {
	r := &run{
		wl: wl, seed: seed, seconds: seconds,
		callers:  runtime.GOMAXPROCS(0),
		durable:  wl == "kv_durable_write",
		dataRoot: dataRoot,
		reads:    newSamples(e2eSamples),
		writes:   newSamples(e2eSamples),
		lags:     newSamples(e2eSamples),
	}
	r.flow = newFlow("tw", seed, r.lags)
	if wl == "trigger_pipeline" {
		return r
	}
	table, n := "r", kvKeys
	if r.durable {
		table, n = "d", durableKeys
	}
	r.keys = make([]kv.Key, n)
	for i := range r.keys {
		r.keys[i] = kvKey(table, i)
	}
	r.perm = mrand.New(mrand.NewSource(int64(mix(seed, 0x5045524d, 0)))).Perm(n)
	r.ver = make([]atomic.Int64, n)
	return r
}

func (r *run) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if r.logged < maxLogged {
		r.logged++
		fmt.Fprintln(os.Stderr, "perfbench: failure:", err)
	}
}

// setup boots a cluster and registers the trigger jobs (trigger_pipeline)
// or preloads the keys (the kv workloads), returning the time it took.
func (r *run) setup(n int) (time.Duration, error) {
	dir := ""
	if r.durable {
		dir = filepath.Join(r.dataRoot, fmt.Sprintf("setup-%d", n))
	}
	start := time.Now()
	c, err := bootCluster(dir, r.tr)
	if err != nil {
		return 0, err
	}
	r.c = c
	if r.keys == nil {
		for i, s := range c.servers {
			if _, err := s.Trigger().Register(r.flow.job(i)); err != nil {
				return 0, fmt.Errorf("register job: %w", err)
			}
		}
	}
	r.preload()
	return time.Since(start), nil
}

// preload writes every key's version 0 from preloadWorkers goroutines:
// with MSet batches, or on kv_durable_write with one WriteLatest per key
// (see durablePreloadWorkers). Every failed key is counted; none is
// retried.
func (r *run) preload() {
	if r.keys == nil {
		return
	}
	batch, workers := preloadBatch, preloadWorkers
	if r.durable {
		batch, workers = 1, durablePreloadWorkers
	}
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for lo := c * batch; lo < len(r.keys); lo += workers * batch {
				hi := min(lo+batch, len(r.keys))
				var errs []error
				if r.durable {
					errs = []error{r.c.cli.WriteLatest(ctx, r.keys[lo], r.value(lo, 0))}
				} else {
					items := make([]client.MSetItem, 0, hi-lo)
					for i := lo; i < hi; i++ {
						items = append(items, client.MSetItem{Key: r.keys[i], Value: r.value(i, 0)})
					}
					errs = r.c.cli.MSet(ctx, items)
				}
				for j, err := range errs {
					r.attempted.Add(1)
					if err != nil {
						r.ver[lo+j].Store(-1)
						r.fail(fmt.Errorf("preload %s: %w", r.keys[lo+j], err))
						continue
					}
					r.ver[lo+j].Store(0)
				}
			}
		}(c)
	}
	wg.Wait()
}

func (r *run) value(i int, ver uint64) []byte {
	if r.durable {
		return bigVal(r.seed, i, ver)
	}
	return smallVal(r.seed, i, ver)
}

func (r *run) valueSize() int {
	if r.durable {
		return bigValue
	}
	return smallValue
}

// startLoad starts the closed-loop callers until stop is closed.
func (r *run) startLoad(stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for id := 0; id < r.callers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.caller(id, stop)
		}(id)
	}
	return &wg
}

func (r *run) caller(id int, stop <-chan struct{}) {
	rng := mrand.New(mrand.NewSource(int64(mix(r.seed, uint64(id), 0xCA11))))
	w := &worker{id: id, rng: rng}
	if r.wl == "kv_read_heavy" {
		w.zipf = mrand.NewZipf(rng, zipfS, 1, uint64(len(r.keys)-1))
	}
	ctx := context.Background()
	for {
		select {
		case <-stop:
			return
		default:
		}
		r.step(ctx, w)
	}
}

// step runs and records one op.
func (r *run) step(ctx context.Context, w *worker) {
	tracing := r.tr != nil && r.tr.on.Load()
	opCtx := ctx
	var sp *opSpan
	if tracing {
		opCtx, sp = r.tr.startOp(ctx)
	}
	start := time.Now()
	read, n, err := r.op(opCtx, w)
	d := time.Since(start)
	if sp != nil {
		r.tr.finishOp(sp, d)
	} else if r.tr != nil && r.tr.plain.Load() {
		r.tr.untraced.add(d)
	}
	r.attempted.Add(1)
	if err != nil {
		r.fail(err)
		return
	}
	if tracing {
		r.written.Add(int64(n))
	}
	if r.measuring.Load() {
		r.completed.Add(1)
		if read {
			r.reads.add(d)
		} else {
			r.writes.add(d)
		}
	}
}

// op issues the workload's next operation and reports whether it was a
// read and how many bytes it wrote.
func (r *run) op(ctx context.Context, w *worker) (read bool, written int, err error) {
	cli := r.c.cli
	switch r.wl {
	case "kv_read_heavy":
		i := r.perm[w.zipf.Uint64()]
		if w.rng.Float64() < readFrac {
			v, _, err := cli.ReadLatest(ctx, r.keys[i])
			if err == nil && !validSmall(r.seed, i, v) {
				err = fmt.Errorf("read %s: wrong value %q", r.keys[i], v)
			}
			return true, 0, err
		}
		v := smallVal(r.seed, i, w.nextVer())
		return false, len(r.keys[i]) + len(v), cli.WriteLatest(ctx, r.keys[i], v)
	case "kv_durable_write":
		// Caller id owns the keys i with i % callers == id.
		i := w.id + r.callers*w.rng.Intn((len(r.keys)-w.id+r.callers-1)/r.callers)
		ver := w.nextVer()
		v := bigVal(r.seed, i, ver)
		if err := cli.WriteLatest(ctx, r.keys[i], v); err != nil {
			r.ver[i].Store(-1)
			return false, 0, err
		}
		r.ver[i].Store(int64(ver))
		return false, len(r.keys[i]) + len(v), nil
	default:
		n, err := r.flow.write(ctx, cli)
		return false, n, err
	}
}

// window waits out a measured slice of d and returns the ops completed in
// it and its length.
func (r *run) window(d time.Duration) (int64, time.Duration) {
	c0, start := r.completed.Load(), time.Now()
	time.Sleep(d)
	return r.completed.Load() - c0, time.Since(start)
}

// audit reads back every acked value once the load has stopped, and times
// read-backs on the workloads that issue no reads of their own. Each check
// counts as attempted, each miss as failed.
func (r *run) audit() {
	ctx := context.Background()
	cli := r.c.cli
	check := func(n int, errs []error) {
		r.attempted.Add(int64(n))
		for _, err := range errs {
			r.fail(err)
		}
	}

	var acked []int
	for i := 0; i < r.flow.issuedCount(); i++ {
		if r.flow.acked[i].Load() {
			acked = append(acked, i)
		}
	}
	missing := r.flow.drain(drainLimit)
	r.attempted.Add(int64(len(acked)))
	for _, i := range missing {
		r.fail(fmt.Errorf("%s: trigger fired on %d of %d nodes within %s", r.flow.key(i), popcount(r.flow.fired[i].Load()), nodes, drainLimit))
	}

	shuffled := func(n int) []int {
		return mrand.New(mrand.NewSource(int64(mix(r.seed, 0xA0D17, 0)))).Perm(n)
	}
	switch r.wl {
	case "kv_read_heavy":
		check(auditKeys(ctx, cli, r.keys, func(i int, g client.MGetResult) error {
			if g.Err != nil {
				return fmt.Errorf("%s: %w", g.Key, g.Err)
			}
			if !validSmall(r.seed, i, g.Value) {
				return fmt.Errorf("%s: wrong value", g.Key)
			}
			return nil
		}))
	case "kv_durable_write":
		var known []int
		for i := range r.keys {
			if r.ver[i].Load() >= 0 {
				known = append(known, i)
			}
		}
		keys := make([]kv.Key, len(known))
		for j, i := range known {
			keys[j] = r.keys[i]
		}
		want := func(j int) []byte { return r.value(known[j], uint64(r.ver[known[j]].Load())) }
		order := shuffled(len(known))
		sample := make([]kv.Key, len(order))
		for j, o := range order {
			sample[j] = keys[o]
		}
		// The timed read-back runs before the bulk audit, whose garbage
		// would otherwise collect during it.
		check(readBack(ctx, cli, r.callers, sample, func(j int) []byte { return want(order[j]) }, r.reads))
		check(auditKeys(ctx, cli, keys, func(j int, g client.MGetResult) error { return checkValue(g, want(j)) }))
	case "trigger_pipeline":
		inputs := make([]kv.Key, len(acked))
		index := make([]kv.Key, len(acked))
		for j, i := range acked {
			inputs[j] = r.flow.key(i)
			index[j] = r.flow.indexKey(i)
		}
		// The index entries are checked first, so the result writes have
		// landed before the timed read-back, and the read-back runs before
		// the bulk audit of the inputs, whose garbage would otherwise
		// collect during it.
		check(r.auditIndex(ctx, acked, index))
		order := shuffled(len(acked))
		sample := make([]kv.Key, len(order))
		for j, o := range order {
			sample[j] = inputs[o]
		}
		check(readBack(ctx, cli, r.callers, sample, func(j int) []byte { return r.flow.value(acked[order[j]]) }, r.reads))
		check(auditKeys(ctx, cli, inputs, func(j int, g client.MGetResult) error {
			return checkValue(g, r.flow.value(acked[j]))
		}))
	}
}

// auditIndex checks each acked input's index entry. Entries still in
// flight when the firings drained are re-read until drainLimit passes.
func (r *run) auditIndex(ctx context.Context, acked []int, index []kv.Key) (int, []error) {
	pending := make([]int, len(acked))
	for j := range pending {
		pending[j] = j
	}
	deadline := time.Now().Add(drainLimit)
	for {
		keys := make([]kv.Key, len(pending))
		for j, p := range pending {
			keys[j] = index[p]
		}
		var still []int
		var errs []error
		auditKeys(ctx, r.c.cli, keys, func(j int, g client.MGetResult) error {
			err := checkValue(g, indexEntry(r.flow.value(acked[pending[j]])))
			if err != nil {
				still = append(still, pending[j])
				errs = append(errs, err)
			}
			return nil
		})
		if len(still) == 0 || time.Now().After(deadline) {
			return len(acked), errs
		}
		pending = still
		time.Sleep(50 * time.Millisecond)
	}
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// endToEnd is the untraced run: it reports every end-to-end metric.
func (r *run) endToEnd() (result, error) {
	var setupTimes []float64
	for n := 0; n < setups; n++ {
		d, err := r.setup(n)
		if err != nil {
			if r.c != nil {
				r.c.close()
			}
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		if n < setups-1 {
			r.c.close()
		}
	}
	defer r.c.close()
	// live_heap_mb is the loaded cluster's heap, taken before the load so
	// it does not depend on how many inputs the window happens to insert.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)

	stop := make(chan struct{})
	load := r.startLoad(stop)
	time.Sleep(warmup)
	r.flow.from.Store(time.Now().UnixNano())
	r.flow.to.Store(math.MaxInt64)
	r.measuring.Store(true)
	stolen0, total0 := readSteal()
	cpu0 := cpuTime()
	// The heap allocated and the bytes written per op include the
	// cluster's background work (anti-entropy sweeps and their repairs,
	// heartbeats). That work shares the CPU with the ops, so when the host
	// steals it slows with them and its share per op holds; taking out a
	// rate measured with the cluster idle made the figures follow the host.
	win0, err0 := readUsage()
	ops, elapsed := r.window(time.Duration(r.seconds) * time.Second)
	win1, err1 := readUsage()
	cpu := cpuTime() - cpu0
	stolen1, total1 := readSteal()
	r.measuring.Store(false)
	r.flow.to.Store(time.Now().UnixNano())
	close(stop)
	load.Wait()
	r.audit()
	if ops == 0 {
		return result{}, fmt.Errorf("no op completed in the window")
	}
	if err := errors.Join(err0, err1); err != nil {
		return result{}, err
	}

	// The timings a caller sees, and the CPU time, are printed for reading
	// but not reported as metrics: on a shared machine they follow the
	// neighbours' load (see README.md).
	rs, ws, ls := r.reads.stats(), r.writes.stats(), r.lags.stats()
	steal := 0.0
	if total1 > total0 {
		steal = 100 * float64(stolen1-stolen0) / float64(total1-total0)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops in %.1f s (%.0f ops/s) on %.2f cores (%.3f ms CPU per op), host steal %.0f%%; set-ups took %.3f s\n",
		r.wl, r.seed, ops, elapsed.Seconds(), float64(ops)/elapsed.Seconds(), cpu.Seconds()/elapsed.Seconds(), cpu.Seconds()*1e3/float64(ops), steal, setupTimes)
	for _, x := range []struct {
		name string
		st   stats
	}{{"read", rs}, {"write", ws}, {"trigger lag", ls}} {
		fmt.Fprintf(os.Stderr, "perfbench: %s latency p50 %.3f ms, p99 %.3f ms, mean %.3f ms over %d samples\n", x.name, x.st.p50, x.st.p99, x.st.mean, x.st.n)
	}
	sort.Float64s(setupTimes)
	attempted, failed := r.attempted.Load(), r.failed.Load()
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"alloc_kb_per_op": {float64(win1.alloc-win0.alloc) / 1024 / float64(ops), "KiB"},
			"write_kb_per_op": {float64(win1.written-win0.written) / 1024 / float64(ops), "KiB"},
			"ok_frac":         {1 - float64(failed)/float64(max(attempted, 1)), "ratio"},
			"setup_s":         {setupTimes[len(setupTimes)/2], "s"},
			"live_heap_mb":    {float64(ms.HeapInuse) / (1 << 20), "MiB"},
		},
	}, nil
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is what the process has allocated and written so far.
type usage struct {
	alloc   uint64 // heap bytes allocated
	written uint64 // bytes passed to write system calls
}

func readUsage() (usage, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w, err := writtenBytes()
	return usage{alloc: ms.TotalAlloc, written: w}, err
}
