// Package dfs is a miniature HDFS-like distributed file system built on
// the simulated cluster substrate: a namenode with namespace, block map,
// lease management, edit log and checkpointing; datanodes with write
// pipelines, an xceiver pool, block reports and block recovery; a
// secondary namenode; a balancer; and a DFS client with block tokens.
//
// The package contains the bug patterns of the seven HDFS failures in the
// paper's dataset (Table 5): HD-4233 (f5), HD-12248 (f6), HD-12070 (f7),
// HD-13039 (f8), HD-16332 (f9), HD-14333 (f10) and HD-15032 (f11).
package dfs

import (
	"strconv"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/simnet"
)

// Cluster is one simulated DFS deployment.
type Cluster struct {
	env *cluster.Env
	NN  *NameNode
	DNs []*DataNode
	Sec *Secondary
	Bal *Balancer
}

// Options select which auxiliary services run.
type Options struct {
	DataNodes     int
	WithSecondary bool
	WithBalancer  bool
	// XceiverLimit caps concurrent block writers per datanode; HD-13039's
	// leak matters because this budget is finite.
	XceiverLimit int
}

// NewCluster creates (but does not start) a DFS deployment.
func NewCluster(env *cluster.Env, opts Options) *Cluster {
	if opts.DataNodes <= 0 {
		opts.DataNodes = 3
	}
	if opts.XceiverLimit <= 0 {
		opts.XceiverLimit = 2
	}
	c := &Cluster{env: env}
	c.NN = newNameNode(c)
	for i := 1; i <= opts.DataNodes; i++ {
		c.DNs = append(c.DNs, newDataNode(c, i, opts.XceiverLimit))
	}
	if opts.WithSecondary {
		c.Sec = newSecondary(c)
	}
	if opts.WithBalancer {
		c.Bal = newBalancer(c)
	}
	return c
}

// Start boots the namenode, datanodes and optional services.
func (c *Cluster) Start() {
	c.NN.start()
	for _, dn := range c.DNs {
		dn.start()
	}
	if c.Sec != nil {
		c.Sec.start()
	}
	if c.Bal != nil {
		c.Bal.start()
	}
}

func (c *Cluster) msg(from, to, typ string, payload interface{}) simnet.Message {
	return simnet.Message{From: from, To: to, Type: typ, Payload: payload}
}

// dnName formats a datanode node name.
func dnName(id int) string { return "dn" + strconv.Itoa(id) }

// pipeline picks replica targets for a new block, round-robin over live
// datanodes.
func (c *Cluster) pipeline(blockID int64, width int) []string {
	var live []*DataNode
	for _, dn := range c.DNs {
		if dn.started && !dn.failed {
			live = append(live, dn)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if width > len(live) {
		width = len(live)
	}
	out := make([]string, 0, width)
	for i := 0; i < width; i++ {
		out = append(out, live[(int(blockID)+i)%len(live)].name)
	}
	return out
}

// RPC timeouts used across the package.
const (
	rpcTimeout  = 300 * des.Millisecond
	pipeTimeout = 200 * des.Millisecond
)
