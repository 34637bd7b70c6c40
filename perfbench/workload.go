package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	mrand "math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/client"
	"sedna/internal/core"
	"sedna/internal/kv"
	"sedna/internal/trigger"
)

// Workload parameters (README.md explains each choice).
const (
	kvKeys         = 20000
	durableKeys    = 5000
	smallValue     = 20 // the paper's 20 B values
	bigValue       = 1024
	tweetSize      = 140
	readFrac       = 0.9
	zipfS          = 1.1
	preloadBatch   = 50
	preloadWorkers = 4
	// A replica applies an MSet batch's keys one at a time and, under
	// SyncAlways, waits for an fsync after each; on a busy host a batch
	// outlasted the 500 ms replica timeout and failed. So kv_durable_write
	// preloads one key per write, from more goroutines to share the
	// group commit.
	durablePreloadWorkers = 8
	flowCapacity          = 1 << 18 // trigger inputs tracked per run
	drainLimit            = 10 * time.Second
	auditBatch            = 256
	readbackReads         = 4000
)

var workloads = map[string]bool{"kv_read_heavy": true, "kv_durable_write": true, "trigger_pipeline": true}

// mix derives a reproducible 64-bit value from the seed and two indices.
func mix(seed, a, b uint64) uint64 {
	x := seed ^ a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// kvKey names key i of a kv table in exactly 20 bytes.
func kvKey(table string, i int) kv.Key {
	return kv.Join("kv", table, fmt.Sprintf("k%014d", i))
}

func keyIndex(k kv.Key) (int, bool) {
	_, _, name := k.Split()
	if len(name) < 2 {
		return 0, false
	}
	i, err := strconv.Atoi(name[1:])
	return i, err == nil
}

// smallVal is key i's value at version ver: an 8-hex-digit check of
// (seed, i, ver) followed by ver in 12 hex digits, so any read can be
// verified against the key it was read from.
func smallVal(seed uint64, i int, ver uint64) []byte {
	return []byte(fmt.Sprintf("%08x%012x", uint32(mix(seed, uint64(i), ver)), ver&(1<<48-1)))
}

func validSmall(seed uint64, i int, v []byte) bool {
	if len(v) != smallValue {
		return false
	}
	ver, err := strconv.ParseUint(string(v[8:]), 16, 64)
	return err == nil && bytes.Equal(v, smallVal(seed, i, ver))
}

// fill writes a reproducible pseudo-random byte stream derived from h.
func fill(b []byte, h uint64) {
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		h = mix(h, uint64(i), 1)
		binary.LittleEndian.PutUint64(w[:], h)
		copy(b[i:], w[:])
	}
}

func bigVal(seed uint64, i int, ver uint64) []byte {
	b := make([]byte, bigValue)
	fill(b, mix(seed, uint64(i), ver))
	return b
}

// tweet is input idx of the crawl flow: 140 printable bytes.
func tweet(seed uint64, idx int) []byte {
	b := make([]byte, tweetSize)
	fill(b, mix(seed, uint64(idx), 0x7477))
	for i := range b {
		b[i] = 'a' + b[i]%26
	}
	return b
}

// indexEntry is what the index action derives from a tweet: its FNV-64
// digest and length in 20 bytes.
func indexEntry(t []byte) []byte {
	h := fnv.New64a()
	h.Write(t)
	return []byte(fmt.Sprintf("%016x%04d", h.Sum64(), len(t)%10000))
}

// flow tracks the inputs of one monitored table: when each was issued,
// whether it was acked, and on which nodes the trigger job fired for it.
// Its arrays are allocated once (see samples).
type flow struct {
	dataset string
	seed    uint64
	issued  []atomic.Int64 // unix nanos at issue
	acked   []atomic.Bool
	fired   []atomic.Uint32 // bit i: fired on node i
	next    atomic.Int64
	lags    *samples
	// window bounds (unix nanos) of the inputs whose lag is sampled.
	from, to atomic.Int64
	// liveBytes counts the bytes of index entries first written.
	liveBytes atomic.Int64
}

func newFlow(dataset string, seed uint64, lags *samples) *flow {
	return &flow{
		dataset: dataset, seed: seed, lags: lags,
		issued: make([]atomic.Int64, flowCapacity),
		acked:  make([]atomic.Bool, flowCapacity),
		fired:  make([]atomic.Uint32, flowCapacity),
	}
}

func (f *flow) key(idx int) kv.Key { return kv.Join(f.dataset, "in", fmt.Sprintf("t%013d", idx)) }

func (f *flow) indexKey(idx int) kv.Key {
	return kv.Join(f.dataset, "idx", fmt.Sprintf("t%013d", idx))
}

func (f *flow) value(idx int) []byte { return tweet(f.seed, idx) }

var errFlowFull = errors.New("trigger flow capacity reached")

// write issues one fresh input with WriteAll and reports its size.
func (f *flow) write(ctx context.Context, cli *client.Client) (int, error) {
	idx := int(f.next.Add(1) - 1)
	if idx >= flowCapacity {
		return 0, errFlowFull
	}
	k, v := f.key(idx), f.value(idx)
	f.issued[idx].Store(time.Now().UnixNano())
	if err := cli.WriteAll(ctx, k, v); err != nil {
		return 0, err
	}
	f.acked[idx].Store(true)
	return len(k) + len(v), nil
}

// job is the trigger job node n registers: it times every first firing per
// node from the input's issue and emits the index entry as one result
// write.
func (f *flow) job(n int) trigger.Job {
	return trigger.Job{
		Name:  "perfbench-" + f.dataset,
		Hooks: []trigger.Hook{trigger.TableHook(f.dataset, "in")},
		Action: trigger.ActionFunc(func(ctx context.Context, key kv.Key, values [][]byte, res *trigger.Result) error {
			now := time.Now().UnixNano()
			idx, ok := keyIndex(key)
			if !ok || idx >= flowCapacity {
				return fmt.Errorf("unexpected key %q", key)
			}
			bit := uint32(1) << n
			for {
				old := f.fired[idx].Load()
				if old&bit != 0 {
					break
				}
				if f.fired[idx].CompareAndSwap(old, old|bit) {
					if at := f.issued[idx].Load(); at >= f.from.Load() && at < f.to.Load() {
						f.lags.add(time.Duration(now - at))
					}
					if old == 0 {
						f.liveBytes.Add(int64(len(f.indexKey(idx)) + smallValue))
					}
					break
				}
			}
			if len(values) > 0 {
				res.Emit(f.indexKey(idx), indexEntry(values[0]))
			}
			return nil
		}),
	}
}

// issuedCount is the number of inputs issued so far.
func (f *flow) issuedCount() int {
	n := int(f.next.Load())
	if n > flowCapacity {
		n = flowCapacity
	}
	return n
}

// drain waits until every acked input fired on every node, or the limit
// passes, and returns the acked inputs that did not.
func (f *flow) drain(limit time.Duration) []int {
	all := uint32(1)<<nodes - 1
	deadline := time.Now().Add(limit)
	for {
		var missing []int
		for i := 0; i < f.issuedCount(); i++ {
			if f.acked[i].Load() && f.fired[i].Load() != all {
				missing = append(missing, i)
			}
		}
		if len(missing) == 0 || time.Now().After(deadline) {
			return missing
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// worker is one closed-loop caller's private generator state.
type worker struct {
	id   int
	rng  *mrand.Rand
	zipf *mrand.Zipf
	seq  uint64
}

func (w *worker) nextVer() uint64 {
	w.seq++
	return uint64(w.id+1)<<40 | w.seq
}

// auditKeys reads back keys with MGet in batches and calls check on each
// result; it returns the number checked and the failures.
func auditKeys(ctx context.Context, cli *client.Client, keys []kv.Key, check func(i int, r client.MGetResult) error) (int, []error) {
	var errs []error
	for lo := 0; lo < len(keys); lo += auditBatch {
		hi := min(lo+auditBatch, len(keys))
		for j, r := range cli.MGet(ctx, keys[lo:hi]) {
			if err := check(lo+j, r); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return len(keys), errs
}

// readBack times ReadLatest on up to readbackReads of keys, spread over the
// callers, and checks each value.
func readBack(ctx context.Context, cli *client.Client, callers int, keys []kv.Key, want func(i int) []byte, reads *samples) (int, []error) {
	if len(keys) > readbackReads {
		keys = keys[:readbackReads]
	}
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(keys); i += callers {
				start := time.Now()
				v, _, err := cli.ReadLatest(ctx, keys[i])
				d := time.Since(start)
				if err == nil && want != nil && !bytes.Equal(v, want(i)) {
					err = fmt.Errorf("read-back of %s: wrong value", keys[i])
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("read-back of %s: %w", keys[i], err))
					mu.Unlock()
					continue
				}
				reads.add(d)
			}
		}(c)
	}
	wg.Wait()
	return len(keys), errs
}

// checkValue compares one MGet result against the expected value.
func checkValue(r client.MGetResult, want []byte) error {
	switch {
	case errors.Is(r.Err, core.ErrNotFound):
		return fmt.Errorf("%s: missing", r.Key)
	case r.Err != nil:
		return fmt.Errorf("%s: %w", r.Key, r.Err)
	case !bytes.Equal(r.Value, want):
		return fmt.Errorf("%s: wrong value", r.Key)
	}
	return nil
}
