package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"sedna/internal/obs"
	"sedna/internal/trigger"
)

// budgetTolerance is how far the median op's stages may sum from the op
// p50 before the traced run fails; budgetPaired is the least share of
// client RPCs that must be paired with the handler that served them.
const (
	budgetTolerance = 0.10
	budgetPaired    = 0.99
)

// cpuModules are the program's modules reported as cpu.<module>.
var cpuModules = []string{
	"client", "transport", "core", "coord", "quorum", "ring", "cluster",
	"memstore", "kv", "wire", "persist", "wal", "vfs", "trigger", "heal",
	"obs", "rebalance", "runtime", "bench",
}

// traced is the per-layer run. One cluster, wrapped by a tracer, serves
// --seconds of load split evenly between plain, profiled and traced
// slices, which rotate.
// The plain slices give the untraced reference and the runtime's
// allocation and scheduling deltas, the profiled slices the CPU profile,
// and the traced slices time every call into each layer.
func (r *run) traced() (result, error) {
	r.tr = newTracer()
	if _, err := r.setup(0); err != nil {
		if r.c != nil {
			r.c.close()
		}
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer r.c.close()
	m := map[string]metric{}

	// The three conditions rotate in slices, so drift over the run (data
	// growth, GC state, the host) falls on all alike. The profiler is kept
	// out of the plain slices: it slows the program too.
	rounds := max(1, r.seconds/6)
	slice := time.Duration(r.seconds) * time.Second / time.Duration(3*rounds)
	var (
		plainOps, tracedOps                      int64
		plainElapsed, profElapsed, tracedElapsed time.Duration
		rt                                       runtimeDelta
		byModule                                 = map[string]int64{}
		cpuTotal                                 int64
		dispatch                                 obs.HistSnapshot
		trig                                     trigger.Stats
		inputs                                   int
	)
	stop := make(chan struct{})
	load := r.startLoad(stop)
	halt := sync.OnceFunc(func() {
		close(stop)
		load.Wait()
	})
	defer halt()
	time.Sleep(warmup)
	r.measuring.Store(true)
	for i := 0; i < rounds; i++ {
		// Plain slice: runtime deltas and the untraced reference.
		r.tr.plain.Store(true)
		rt0 := readRuntime()
		n, d := r.window(slice)
		rt1 := readRuntime()
		r.tr.plain.Store(false)
		plainOps, plainElapsed = plainOps+n, plainElapsed+d
		rt.add(rt0, rt1)

		// Profiled slice.
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
		_, d = r.window(slice)
		pprof.StopCPUProfile()
		profElapsed += d
		mods, total, err := cpuByModule(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		for mod, ns := range mods {
			byModule[mod] += ns
		}
		cpuTotal += total

		// Traced slice.
		snap0, trig0, inputs0 := r.nodeSnapshot(), r.triggerStats(), r.flow.issuedCount()
		r.tr.on.Store(true)
		n, d = r.window(slice)
		r.tr.on.Store(false)
		snap1, trig1, inputs1 := r.nodeSnapshot(), r.triggerStats(), r.flow.issuedCount()
		tracedOps, tracedElapsed = tracedOps+n, tracedElapsed+d
		dispatch = dispatch.Merge(snap1.Delta(snap0).Hists["transport.stage.dispatch.wait"])
		trig.Scanned += trig1.Scanned - trig0.Scanned
		trig.Coalesced += trig1.Coalesced - trig0.Coalesced
		trig.Fired += trig1.Fired - trig0.Fired
		trig.ResultWrites += trig1.ResultWrites - trig0.ResultWrites
		inputs += inputs1 - inputs0
	}
	r.measuring.Store(false)
	halt()
	r.audit()

	tr := r.tr
	budgets, nOps := tr.ops.kept()
	stage := func(f func(opBudget) time.Duration) stats {
		v := make([]int64, len(budgets))
		for i, b := range budgets {
			v[i] = int64(f(b))
		}
		sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
		return summarize(v, int64(nOps))
	}
	ops := float64(max(nOps, 1))
	perKop := func(n int64) float64 { return float64(n) / ops * 1000 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ms := func(name string, v float64) { m[name] = metric{v, "ms"} }
	count := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// client
	op := stage(func(b opBudget) time.Duration { return b.d })
	self := stage(func(b opBudget) time.Duration { return b.self })
	ms("client.self_ms.p50", self.p50)
	count("client.rpcs_per_op", "count", ratio(float64(tr.clientRPCs.Load()), ops))
	count("client.ring_fetches_per_kop", "count", perKop(tr.ringFetches.Load()))

	// transport
	hop := stage(func(b opBudget) time.Duration { return b.hop })
	ms("transport.client_hop_ms.mean", hop.mean)
	ms("transport.replica_hop_ms.mean",
		(ratio(float64(tr.replicaCallNs.Load()), float64(tr.replicaCalls.Load()))-
			ratio(float64(tr.replicaHandlerNs.Load()), float64(tr.replicaHandlers.Load())))/1e6)
	count("transport.overloaded_per_kop", "count", perKop(tr.overloaded.Load()))
	ms("transport.dispatch_wait_ms.p50", float64(dispatch.Quantile(0.50))/1e6)
	ms("transport.dispatch_wait_ms.p99", float64(dispatch.Quantile(0.99))/1e6)

	// core
	cself := stage(func(b opBudget) time.Duration { return b.coord })
	cw, cr := tr.coordWrite.stats(), tr.coordRead.stats()
	rw, rr := tr.replicaWrite.stats(), tr.replicaRead.stats()
	ms("core.coord_write_ms.p50", cw.p50)
	ms("core.coord_write_ms.p99", cw.p99)
	ms("core.coord_read_ms.p50", cr.p50)
	ms("core.coord_read_ms.p99", cr.p99)
	ms("core.coord_self_ms.p50", cself.p50)
	ms("core.replica_write_ms.p50", rw.p50)
	ms("core.replica_write_ms.p99", rw.p99)
	ms("core.replica_read_ms.p50", rr.p50)

	// quorum and heal
	wait := stage(func(b opBudget) time.Duration { return b.wait })
	rpc := tr.replicaRPC.stats()
	ms("quorum.wait_ms.p50", wait.p50)
	ms("quorum.wait_ms.p99", wait.p99)
	ms("quorum.replica_rpc_ms.p50", rpc.p50)
	ms("quorum.replica_rpc_ms.p99", rpc.p99)
	count("quorum.replica_rpcs_per_op", "count", ratio(float64(tr.pairedReplicaRPCs.Load()), ops))
	count("quorum.background_rpcs_per_op", "count", ratio(float64(tr.backgroundN.Load()), ops))
	count("heal.repair_rpcs_per_kop", "count", perKop(tr.repairs.Load()))

	// memstore: every node holds every key (N=3 on three nodes).
	var evictions, storeBytes int64
	for _, s := range r.c.servers {
		st := s.Stats().Store
		evictions += int64(st.Evictions)
		storeBytes += st.Bytes
	}
	count("memstore.evictions", "count", float64(evictions))
	count("memstore.bytes_per_user_byte", "ratio", ratio(float64(storeBytes), float64(nodes*r.liveUserBytes())))

	// wal
	fs := tr.fsync.stats()
	count("wal.fsyncs_per_kop", "count", perKop(tr.fsyncs.Load()))
	ms("wal.fsync_ms.p50", fs.p50)
	ms("wal.fsync_ms.p99", fs.p99)
	count("wal.bytes_per_user_byte", "ratio", ratio(float64(tr.walBytes.Load()), float64(r.written.Load())))

	// trigger
	fired := float64(trig.Fired)
	count("trigger.fired_per_write", "count", ratio(fired, float64(inputs)))
	count("trigger.scanned_per_fired", "count", ratio(float64(trig.Scanned), fired))
	count("trigger.coalesced_per_fired", "count", ratio(float64(trig.Coalesced), fired))
	count("trigger.result_writes_per_fired", "count", ratio(float64(trig.ResultWrites), fired))

	// cpu
	for _, mod := range cpuModules {
		count("cpu."+mod, "%", 100*ratio(float64(byModule[mod]), float64(cpuTotal)))
	}
	count("cpu.cores_busy", "cores", ratio(float64(cpuTotal), float64(profElapsed)))

	// proc
	plain := float64(max(plainOps, 1))
	count("proc.allocs_per_op", "count", float64(rt.mallocs)/plain)
	count("proc.alloc_bytes_per_op", "B", float64(rt.allocBytes)/plain)
	count("proc.gc_cpu_frac", "ratio", ratio(rt.gcCPU, rt.totalCPU))
	count("proc.sched_latency_p99_us", "us", 1e6*rt.schedQuantile(0.99))

	plainRate := float64(plainOps) / plainElapsed.Seconds()
	tracedRate := float64(tracedOps) / tracedElapsed.Seconds()
	count("bench.tracing_overhead_pct", "%", 100*ratio(plainRate-tracedRate, plainRate))

	// The budget: the stages of the median op must add up to the op p50.
	// They partition every paired op, so this holds once the pairing does;
	// the p50 of the ops run untraced in the same run shows how far tracing
	// moved the op.
	med := medianBudget(budgets)
	plainOp := tr.untraced.stats()
	ms("budget.op_ms.p50", op.p50)
	ms("budget.untraced_op_ms.p50", plainOp.p50)
	ms("budget.median_op.client_self_ms", float64(med.self)/1e6)
	ms("budget.median_op.client_hop_ms", float64(med.hop)/1e6)
	ms("budget.median_op.coord_self_ms", float64(med.coord)/1e6)
	ms("budget.median_op.quorum_wait_ms", float64(med.wait)/1e6)
	stages := float64(med.self+med.hop+med.coord+med.wait) / 1e6
	ms("budget.stages_ms.sum", stages)
	paired := 1 - ratio(float64(tr.unpairedRPCs.Load()), float64(tr.clientRPCs.Load()))
	count("budget.paired_frac", "ratio", paired)
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: %d ops (p50 %.3f ms), %d untraced (p50 %.3f ms); median traced op = client self %.3f + client hop %.3f + coord self %.3f + quorum wait %.3f = %.3f ms; %.4f of RPCs paired\n",
		r.wl, nOps, op.p50, plainOp.n, plainOp.p50, float64(med.self)/1e6, float64(med.hop)/1e6, float64(med.coord)/1e6, float64(med.wait)/1e6, stages, paired)
	switch {
	case nOps == 0 || plainOp.n == 0:
		return result{}, fmt.Errorf("budget check failed: no traced or no untraced ops")
	case paired < budgetPaired:
		return result{}, fmt.Errorf("budget check failed: only %.4f of client RPCs were paired with their coordinator handler", paired)
	case math.Abs(stages-op.p50) > budgetTolerance*op.p50:
		return result{}, fmt.Errorf("budget check failed: the median op's stages sum to %.3f ms, the op p50 is %.3f ms (tolerance %.0f%%)",
			stages, op.p50, budgetTolerance*100)
	}

	attempted, failed := r.attempted.Load(), r.failed.Load()
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// medianBudget averages each stage over the middle tenth of ops by
// duration, giving the budget of the typical op.
func medianBudget(b []opBudget) opBudget {
	sort.Slice(b, func(i, j int) bool { return b[i].d < b[j].d })
	lo := len(b) * 45 / 100
	hi := max(len(b)*55/100, lo+1)
	var sum opBudget
	for _, o := range b[lo:min(hi, len(b))] {
		sum.d += o.d
		sum.self += o.self
		sum.hop += o.hop
		sum.coord += o.coord
		sum.wait += o.wait
	}
	n := time.Duration(max(min(hi, len(b))-lo, 1))
	return opBudget{d: sum.d / n, self: sum.self / n, hop: sum.hop / n, coord: sum.coord / n, wait: sum.wait / n}
}

// liveUserBytes is the key and value bytes the cluster should hold.
func (r *run) liveUserBytes() int64 {
	var n int64
	for i := range r.keys {
		n += int64(len(r.keys[i]) + r.valueSize())
	}
	for i := 0; i < r.flow.issuedCount(); i++ {
		if r.flow.acked[i].Load() {
			n += int64(len(r.flow.key(i)) + len(r.flow.value(i)))
		}
	}
	return n + r.flow.liveBytes.Load()
}

// nodeSnapshot merges every node's metric registry.
func (r *run) nodeSnapshot() obs.Snapshot {
	var s obs.Snapshot
	for _, srv := range r.c.servers {
		s = s.Merge(srv.Obs().Snapshot())
	}
	return s
}

func (r *run) triggerStats() trigger.Stats {
	var t trigger.Stats
	for _, srv := range r.c.servers {
		s := srv.Trigger().Stats()
		t.Scanned += s.Scanned
		t.Coalesced += s.Coalesced
		t.Fired += s.Fired
		t.ResultWrites += s.ResultWrites
	}
	return t
}

// runtimeStats is a point-in-time read of the runtime's counters.
type runtimeStats struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
	sched               metrics.Float64Histogram
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	st := runtimeStats{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		st.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		st.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		st.sched = metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return st
}

// runtimeDelta accumulates the runtime's counters over several intervals.
type runtimeDelta struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
	schedCounts         []uint64
	schedBuckets        []float64
}

func (d *runtimeDelta) add(a, b runtimeStats) {
	d.mallocs += b.mallocs - a.mallocs
	d.allocBytes += b.allocBytes - a.allocBytes
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	if len(a.sched.Counts) != len(b.sched.Counts) {
		return
	}
	if d.schedCounts == nil {
		d.schedCounts = make([]uint64, len(b.sched.Counts))
		d.schedBuckets = b.sched.Buckets
	}
	for i := range b.sched.Counts {
		d.schedCounts[i] += b.sched.Counts[i] - a.sched.Counts[i]
	}
}

// schedQuantile returns quantile q of the scheduling latencies observed,
// interpolating within the runtime histogram's bucket.
func (d *runtimeDelta) schedQuantile(q float64) float64 {
	var total uint64
	for _, n := range d.schedCounts {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range d.schedCounts {
		n := float64(c)
		if n > 0 && cum+n >= target {
			lo, hi := d.schedBuckets[i], d.schedBuckets[i+1]
			if math.IsInf(lo, -1) {
				return hi
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(target-cum)/n
		}
		cum += n
	}
	return d.schedBuckets[len(d.schedBuckets)-1]
}
