package main

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/core"
	"sedna/internal/transport"
	"sedna/internal/vfs"
)

// tracer times the calls into each layer from outside the program: it
// wraps the client's transport.Caller, every node's transport.Transport
// (the Serve handler and outbound Calls) and the WAL's vfs.FS. Nothing is
// recorded until on is set, so one cluster serves untraced and traced
// slices in turn.
//
// Spans are paired in two ways. A client op's RPCs find the op through a
// context value the client forwards to Caller.Call. A client RPC finds the
// coordinator handler that served it through a tag the client wrapper puts
// in the request's trace extension and the node wrapper strips before the
// handler sees it. A coordinator handler's outbound replica calls find the
// handler through a context value, which quorum keeps (WithoutCancel keeps
// values); replica calls with no handler in their context are background
// work (trigger write-backs, hints, sweeps, repairs).
type tracer struct {
	on atomic.Bool
	// plain is set during the slices that are neither traced nor profiled.
	plain atomic.Bool
	tags  atomic.Uint64
	recs  []handlerRec

	// Per client op: its stage split, and RPC counts; untraced holds the
	// durations of ops run in plain slices.
	ops                                 opBudgets
	untraced                            *samples
	clientRPCs, ringFetches, overloaded atomic.Int64
	unpairedRPCs                        atomic.Int64

	// Per handler invocation on any node, by opcode.
	coordWrite, coordRead, replicaWrite, replicaRead *samples
	repairs                                          atomic.Int64
	replicaHandlerNs, replicaHandlers                atomic.Int64

	// Outbound replica calls from any node.
	replicaRPC                     *samples
	replicaCallNs, replicaCalls    atomic.Int64
	pairedReplicaRPCs, backgroundN atomic.Int64

	// WAL filesystem.
	fsync    *samples
	fsyncs   atomic.Int64
	walBytes atomic.Int64
}

// traceSamples bounds each traced series; see samples.
const traceSamples = 1 << 17

func newTracer() *tracer {
	return &tracer{
		recs:         make([]handlerRec, 1<<16),
		ops:          opBudgets{v: make([]opBudget, traceSamples)},
		untraced:     newSamples(traceSamples),
		coordWrite:   newSamples(traceSamples),
		coordRead:    newSamples(traceSamples),
		replicaWrite: newSamples(traceSamples),
		replicaRead:  newSamples(traceSamples),
		replicaRPC:   newSamples(traceSamples),
		fsync:        newSamples(traceSamples),
	}
}

// --- pairing ---

type opKey struct{}
type handlerKey struct{}

// opSpan collects the RPCs one client op issued.
type opSpan struct {
	mu   sync.Mutex
	rpcs []rpcRec
}

type rpcRec struct {
	tag uint64
	d   time.Duration
}

// handlerSpan collects the outbound replica calls one coordinator handler
// issued. Calls still running when the handler returns end at its return.
type handlerSpan struct {
	mu       sync.Mutex
	done     bool
	children []interval
}

type interval struct{ start, end time.Time }

// handlerRec is the result of one tagged coordinator handler, looked up by
// the client op that sent the tag. The table is far larger than the number
// of ops in flight, so a slot is never reused before its op reads it.
type handlerRec struct {
	tag   atomic.Uint64
	dur   atomic.Int64
	wait  atomic.Int64
	calls atomic.Int64
}

// tagMagic marks a benchmark tag in the trace extension; the program's own
// trace contexts start with a small version byte.
const tagMagic = 0xB7

func encodeTag(tag uint64) []byte {
	b := make([]byte, 9)
	b[0] = tagMagic
	binary.LittleEndian.PutUint64(b[1:], tag)
	return b
}

func decodeTag(b []byte) (uint64, bool) {
	if len(b) != 9 || b[0] != tagMagic {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[1:]), true
}

func isCoordOp(op uint16) bool { return op == core.OpCoordWrite || op == core.OpCoordRead }

func isReplicaOp(op uint16) bool {
	switch op {
	case core.OpReplicaWrite, core.OpReplicaRead, core.OpReplicaRepair,
		core.OpReplicaWriteBatch, core.OpReplicaReadBatch:
		return true
	}
	return false
}

// --- client side ---

type clientCaller struct {
	inner transport.Caller
	t     *tracer
}

func (t *tracer) wrapClient(c transport.Caller) transport.Caller { return clientCaller{c, t} }

func (c clientCaller) Call(ctx context.Context, addr string, req transport.Message) (transport.Message, error) {
	t := c.t
	if !t.on.Load() {
		return c.inner.Call(ctx, addr, req)
	}
	if req.Op == core.OpRingGet {
		t.ringFetches.Add(1)
	}
	op, _ := ctx.Value(opKey{}).(*opSpan)
	var tag uint64
	if op != nil && isCoordOp(req.Op) && len(req.Trace) == 0 {
		tag = t.tags.Add(1)
		req.Trace = encodeTag(tag)
	}
	start := time.Now()
	resp, err := c.inner.Call(ctx, addr, req)
	d := time.Since(start)
	if errors.Is(err, transport.ErrOverloaded) {
		t.overloaded.Add(1)
	}
	if op != nil {
		op.mu.Lock()
		op.rpcs = append(op.rpcs, rpcRec{tag: tag, d: d})
		op.mu.Unlock()
	}
	return resp, err
}

// startOp returns a context that attributes the client's RPCs to a new op.
func (t *tracer) startOp(ctx context.Context) (context.Context, *opSpan) {
	op := &opSpan{}
	return context.WithValue(ctx, opKey{}, op), op
}

// opBudget is one client op split into its four blocking stages: client
// self time (op minus its RPCs), the client→coordinator hop (RPC minus
// handler), coordinator self time (handler minus replica waits) and the
// quorum wait (handler time covered by outstanding replica calls). The four
// add up to the op's duration.
type opBudget struct {
	d, self, hop, coord, wait time.Duration
}

// opBudgets is a fixed-size reservoir of op budgets (see samples).
type opBudgets struct {
	mu sync.Mutex
	v  []opBudget
	n  int
}

func (b *opBudgets) add(o opBudget) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
	if b.n <= len(b.v) {
		b.v[b.n-1] = o
	} else if j := rand.IntN(b.n); j < len(b.v) {
		b.v[j] = o
	}
}

// kept returns the budgets held, and the number of ops added.
func (b *opBudgets) kept() ([]opBudget, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]opBudget(nil), b.v[:min(b.n, len(b.v))]...), b.n
}

func (t *tracer) finishOp(op *opSpan, d time.Duration) {
	op.mu.Lock()
	defer op.mu.Unlock()
	var rpcs, hop, self, wait time.Duration
	for _, r := range op.rpcs {
		rpcs += r.d
		t.clientRPCs.Add(1)
		rec := &t.recs[r.tag%uint64(len(t.recs))]
		if r.tag == 0 || rec.tag.Load() != r.tag {
			// An RPC whose handler recorded nothing (it failed in transit).
			t.unpairedRPCs.Add(1)
			hop += r.d
			continue
		}
		h := time.Duration(rec.dur.Load())
		w := time.Duration(rec.wait.Load())
		hop += r.d - h
		self += h - w
		wait += w
		t.pairedReplicaRPCs.Add(rec.calls.Load())
	}
	t.ops.add(opBudget{d: d, self: d - rpcs, hop: hop, coord: self, wait: wait})
}

// --- node side ---

// nodeTransport wraps a node's TCP transport. Embedding keeps Instrument
// and SetLogf visible, so the node still exports its transport metrics.
type nodeTransport struct {
	*transport.TCPTransport
	t *tracer
}

func (t *tracer) wrapNode(tcp *transport.TCPTransport) transport.Transport {
	return &nodeTransport{tcp, t}
}

func (n *nodeTransport) Serve(h transport.Handler) error {
	return n.TCPTransport.Serve(n.t.wrapHandler(h))
}

func (t *tracer) wrapHandler(h transport.Handler) transport.Handler {
	return func(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
		tag, tagged := decodeTag(req.Trace)
		if tagged {
			req.Trace = nil
		}
		if !t.on.Load() {
			return h(ctx, from, req)
		}
		var sp *handlerSpan
		if isCoordOp(req.Op) {
			sp = &handlerSpan{}
			ctx = context.WithValue(ctx, handlerKey{}, sp)
		}
		start := time.Now()
		resp, err := h(ctx, from, req)
		end := time.Now()
		d := end.Sub(start)
		switch req.Op {
		case core.OpCoordWrite:
			t.coordWrite.add(d)
		case core.OpCoordRead:
			t.coordRead.add(d)
		case core.OpReplicaWrite:
			t.replicaWrite.add(d)
		case core.OpReplicaRead:
			t.replicaRead.add(d)
		case core.OpReplicaRepair:
			t.repairs.Add(1)
		}
		if isReplicaOp(req.Op) {
			t.replicaHandlerNs.Add(int64(d))
			t.replicaHandlers.Add(1)
		}
		if sp != nil && tagged {
			wait, calls := sp.finish(start, end)
			rec := &t.recs[tag%uint64(len(t.recs))]
			rec.dur.Store(int64(d))
			rec.wait.Store(int64(wait))
			rec.calls.Store(int64(calls))
			rec.tag.Store(tag)
		}
		return resp, err
	}
}

// finish closes the span at end and returns the part of [start, end]
// during which at least one replica call was outstanding, plus the number
// of calls.
func (sp *handlerSpan) finish(start, end time.Time) (time.Duration, int) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.done = true
	iv := make([]interval, 0, len(sp.children))
	for _, c := range sp.children {
		if c.end.IsZero() || c.end.After(end) {
			c.end = end
		}
		if c.start.Before(start) {
			c.start = start
		}
		if c.end.After(c.start) {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].start.Before(iv[b].start) })
	var covered time.Duration
	var cur interval
	for i, c := range iv {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(iv) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return covered, len(sp.children)
}

func (n *nodeTransport) Call(ctx context.Context, addr string, req transport.Message) (transport.Message, error) {
	t := n.t
	if !t.on.Load() || !isReplicaOp(req.Op) {
		return n.TCPTransport.Call(ctx, addr, req)
	}
	sp, _ := ctx.Value(handlerKey{}).(*handlerSpan)
	slot := -1
	start := time.Now()
	if sp != nil {
		sp.mu.Lock()
		if !sp.done {
			slot = len(sp.children)
			sp.children = append(sp.children, interval{start: start})
		}
		sp.mu.Unlock()
	}
	resp, err := n.TCPTransport.Call(ctx, addr, req)
	end := time.Now()
	d := end.Sub(start)
	if errors.Is(err, transport.ErrOverloaded) {
		t.overloaded.Add(1)
	}
	t.replicaCallNs.Add(int64(d))
	t.replicaCalls.Add(1)
	if sp != nil {
		t.replicaRPC.add(d)
		if slot >= 0 {
			sp.mu.Lock()
			if !sp.done {
				sp.children[slot].end = end
			}
			sp.mu.Unlock()
		}
	} else {
		t.backgroundN.Add(1)
	}
	return resp, err
}

// --- WAL filesystem ---

type countingFS struct {
	vfs.FS
	t *tracer
}

type countingFile struct {
	vfs.File
	t *tracer
}

func (t *tracer) fs() vfs.FS { return countingFS{vfs.OS, t} }

func (f countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{file, f.t}, nil
}

func (f countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if f.t.on.Load() {
		f.t.walBytes.Add(int64(len(data)))
	}
	return f.FS.WriteFile(name, data, perm)
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.t.on.Load() {
		f.t.walBytes.Add(int64(n))
	}
	return n, err
}

func (f countingFile) Sync() error {
	if !f.t.on.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.t.fsync.add(time.Since(start))
	f.t.fsyncs.Add(1)
	return err
}
