package main

import (
	"fmt"
	"path/filepath"
	"time"

	"sedna/internal/client"
	"sedna/internal/coord"
	"sedna/internal/core"
	"sedna/internal/persist"
	"sedna/internal/ring"
	"sedna/internal/transport"
	"sedna/internal/wal"
)

// nodes is the data-node count: the paper's N=3 replication on the fewest
// machines that can hold it.
const nodes = 3

// basePort is the coordination member's port; data node i listens on
// basePort+1+i. A node's address is its identity, and replica placement
// hashes it, so fixed ports give every run the same ring layout. The range
// sits below the kernel's ephemeral ports; if a port is taken, the next
// block of ten is tried.
const (
	basePort    = 27300
	portBlocks  = 8
	portsPerRun = 10
)

// cluster is one coordination member plus three data nodes on real TCP
// loopback, and one client over its own TCP transport.
type cluster struct {
	coord   *coord.Server
	servers []*core.Server
	addrs   []string
	cliTr   *transport.TCPTransport
	cli     *client.Client
}

// bootCluster starts the cluster with the shipped server defaults and
// returns once every node's ring lists all three nodes. When dataDir is
// set, every node runs a write-ahead log synced on every acked write
// (group commit, the crash-safe policy). tr, when set, wraps each node's
// transport and WAL filesystem and the client's caller.
func bootCluster(dataDir string, tr *tracer) (c *cluster, err error) {
	c = &cluster{}
	var listeners []*transport.TCPTransport
	for block := 0; ; block++ {
		listeners, err = listenAll(basePort + block*portsPerRun)
		if err == nil {
			break
		}
		if block+1 == portBlocks {
			return c, err
		}
	}
	spare := listeners // bound but not yet owned by a server
	defer func() {
		if err != nil {
			closeAll(spare)
			c.close()
		}
	}()
	coordTr := listeners[0]
	coordAddr := coordTr.Addr()
	c.coord = coord.NewServer(coord.ServerConfig{
		ID:        0,
		Members:   []string{coordAddr},
		Transport: coordTr,
	})
	spare = listeners[1:]
	if err := c.coord.Start(); err != nil {
		return c, fmt.Errorf("coord start: %w", err)
	}
	if err := waitFor(10*time.Second, c.coord.IsLeader); err != nil {
		return c, fmt.Errorf("coord election: %w", err)
	}

	for i := 0; i < nodes; i++ {
		tcp := listeners[1+i]
		addr := tcp.Addr()
		var t transport.Transport = tcp
		var pcfg persist.Config
		if dataDir != "" {
			pcfg = persist.Config{
				Dir:      filepath.Join(dataDir, fmt.Sprintf("node-%d", i)),
				Strategy: persist.WriteAhead,
				WALSync:  wal.SyncAlways,
			}
		}
		if tr != nil {
			t = tr.wrapNode(tcp)
			if dataDir != "" {
				pcfg.FS = tr.fs()
			}
		}
		srv, err := core.NewServer(core.Config{
			Node:         ring.NodeID(addr),
			Transport:    t,
			CoordServers: []string{coordAddr},
			Bootstrap:    i == 0,
			Persist:      pcfg,
		})
		if err != nil {
			return c, fmt.Errorf("node %d: %w", i, err)
		}
		spare = listeners[2+i:]
		if err := srv.Start(); err != nil {
			srv.Close()
			return c, fmt.Errorf("node %d start: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, addr)
	}
	converged := func() bool {
		for _, s := range c.servers {
			if r := s.Ring(); r == nil || len(r.Nodes()) != nodes {
				return false
			}
		}
		return true
	}
	if err := waitFor(30*time.Second, converged); err != nil {
		return c, fmt.Errorf("ring convergence: %w", err)
	}

	c.cliTr = transport.NewTCP("")
	var caller transport.Caller = c.cliTr
	if tr != nil {
		caller = tr.wrapClient(c.cliTr)
	}
	c.cli, err = client.New(client.Config{
		Servers: c.addrs,
		Caller:  caller,
		Source:  "perfbench",
	})
	return c, err
}

// close stops the client, the data nodes and the coordination member, and
// returns once each has shut down.
func (c *cluster) close() {
	if c.cliTr != nil {
		c.cliTr.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	if c.coord != nil {
		c.coord.Close()
	}
}

// listenAll binds the coordination member and the data nodes on
// consecutive ports from base, or binds none.
func listenAll(base int) ([]*transport.TCPTransport, error) {
	var ls []*transport.TCPTransport
	for i := 0; i <= nodes; i++ {
		l, err := transport.NewTCPListen(fmt.Sprintf("127.0.0.1:%d", base+i))
		if err != nil {
			closeAll(ls)
			return nil, err
		}
		ls = append(ls, l)
	}
	return ls, nil
}

func closeAll(ls []*transport.TCPTransport) {
	for _, l := range ls {
		l.Close()
	}
}

func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("not reached within %s", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
