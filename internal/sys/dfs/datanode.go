package dfs

import (
	"fmt"
	"strconv"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/simnet"
)

// DataNode stores block replicas and participates in write pipelines.
type DataNode struct {
	c    *Cluster
	id   int
	name string

	started bool
	failed  bool

	xceiverLimit int
	xceiversBusy int
	leaked       int
}

func newDataNode(c *Cluster, id, xceiverLimit int) *DataNode {
	return &DataNode{c: c, id: id, name: dnName(id), xceiverLimit: xceiverLimit}
}

func (d *DataNode) env() *cluster.Env { return d.c.env }

func (d *DataNode) actor(thread string) string { return d.name + "-" + thread }

func (d *DataNode) start() {
	env := d.env()
	net := env.Net
	net.Handle(d.name, "dfs.writeblock", d.actor("xceiver"), d.onWriteBlock)
	net.Handle(d.name, "dfs.mirror", d.actor("xceiver"), d.onMirror)
	net.Handle(d.name, "dfs.read-block", d.actor("xceiver"), d.onReadBlock)
	net.Handle(d.name, "dfs.recover", d.actor("recovery"), d.onRecover)
	net.Handle(d.name, "dfs.move-block", d.actor("xceiver"), d.onMoveBlock)
	net.Handle(d.name, "dfs.transfer-block", d.actor("xceiver"), d.onTransferBlock)

	env.Sim.Go(d.actor("main"), func() {
		d.bootstrap()
	})

	env.Sim.Every(d.actor("heartbeat"), 150*des.Millisecond, func() {
		if !d.started || d.failed {
			return
		}
		err := env.Net.Send("dfs.datanode.send-heartbeat", d.c.msg(d.name, "nn", "dfs.heartbeat", d.id))
		if err != nil {
			env.Log.Warnf("Heartbeat from %s failed: %s", d.name, err)
		}
	})

	// Periodic volume re-check; unlike the startup path, failures here are
	// tolerated (the contrast that makes HD-14333 timing-sensitive).
	env.Sim.Every(d.actor("volume-check"), 500*des.Millisecond, func() {
		if !d.started || d.failed {
			return
		}
		d.refreshVolumes()
	})

	// Periodic block report to the namenode.
	env.Sim.Every(d.actor("blockreport"), 400*des.Millisecond, func() {
		if !d.started || d.failed {
			return
		}
		n := env.Disk.Count(d.name + "/blk_")
		err := env.Net.Send("dfs.datanode.send-blockreport", d.c.msg(d.name, "nn", "dfs.blockreport", n))
		if err != nil {
			env.Log.Warnf("Block report from %s failed: %s", d.name, err)
		}
	})
}

// bootstrap registers with the namenode and then initializes the storage
// volumes. HD-14333 (f10): a disk error while adding a storage directory
// during startup registration aborts the whole datanode instead of
// tolerating the single bad volume.
func (d *DataNode) bootstrap() {
	env := d.env()
	env.Log.Infof("DataNode %s starting registration", d.name)
	env.Net.Call("dfs.datanode.register-rpc", d.c.msg(d.name, "nn", "dfs.register", d.id),
		rpcTimeout, func(_ interface{}, err error) {
			if err != nil {
				env.Log.Warnf("DataNode %s registration failed, retrying: %s", d.name, err)
				env.Sim.Schedule(d.actor("main"), 200*des.Millisecond, d.bootstrap)
				return
			}
			if err := d.initVolumes(); err != nil {
				env.Log.Errorf("Failed to add storage directory on %s", d.name)
				// Defect (HD-14333): one bad volume during registration
				// kills the datanode outright.
				env.Log.Errorf("DataNode %s failed to start: no valid volumes", d.name)
				d.failed = true
				return
			}
			d.started = true
			env.Log.Infof("DataNode %s started with %d volumes", d.name, 2)
		})
}

// initVolumes prepares the storage directories.
func (d *DataNode) initVolumes() error {
	env := d.env()
	for v := 1; v <= 2; v++ {
		dir := d.name + "/vol" + strconv.Itoa(v) + "/VERSION"
		if err := env.Disk.Write("dfs.datanode.init-storage", dir, []byte("ok\n")); err != nil {
			return err
		}
	}
	return nil
}

// refreshVolumes re-checks storage directories periodically; unlike the
// startup path, errors here are tolerated with a warning.
func (d *DataNode) refreshVolumes() {
	env := d.env()
	if err := d.initVolumes(); err != nil {
		env.Log.Warnf("Volume refresh failed on %s, will retry: %s", d.name, err)
	}
}

// acquireXceiver reserves a transfer thread; the pool is finite.
func (d *DataNode) acquireXceiver() error {
	if d.xceiversBusy+d.leaked >= d.xceiverLimit {
		return fmt.Errorf("dfs: xceiver pool exhausted on %s", d.name)
	}
	d.xceiversBusy++
	return nil
}

func (d *DataNode) releaseXceiver() {
	if d.xceiversBusy > 0 {
		d.xceiversBusy--
	}
}

// writeReq is a pipelined block write.
type writeReq struct {
	Block    int64
	Data     string
	Pipeline []string // remaining downstream targets, self first
}

// onWriteBlock is the pipeline head: store locally, then mirror downstream.
// HD-13039 (f8): when connecting to the downstream node fails, the error
// path returns without releasing the xceiver — the socket/thread leak.
func (d *DataNode) onWriteBlock(m simnet.Message, respond func(interface{}, error)) {
	env := d.env()
	if !d.started || d.failed {
		return
	}
	req, ok := m.Payload.(writeReq)
	if !ok {
		respond(nil, fmt.Errorf("dfs: malformed write"))
		return
	}
	if err := d.acquireXceiver(); err != nil {
		env.Log.Errorf("Xceiver pool exhausted on %s, rejecting blk_%d", d.name, req.Block)
		respond(nil, err)
		return
	}
	if err := d.storeReplica(req.Block, req.Data); err != nil {
		env.Log.Errorf("Failed to write replica blk_%d on %s: %s", req.Block, d.name, err)
		d.releaseXceiver()
		respond(nil, err)
		return
	}
	downstream := req.Pipeline[1:]
	if len(downstream) == 0 {
		d.releaseXceiver()
		d.reportFinalized(req.Block)
		respond("ack", nil)
		return
	}
	// Connect to the next node in the pipeline.
	if err := env.FI.Reach("dfs.datanode.connect-downstream", inject.IO); err != nil {
		env.Log.Errorf("Failed to build pipeline for blk_%d at %s", req.Block, d.name)
		d.leaked++ // Defect (HD-13039): early return leaks the xceiver.
		respond(nil, fmt.Errorf("dfs: pipeline setup failed for blk_%d", req.Block))
		return
	}
	next := downstream[0]
	env.Net.Call("dfs.datanode.mirror-rpc",
		d.c.msg(d.name, next, "dfs.mirror", writeReq{Block: req.Block, Data: req.Data, Pipeline: downstream}),
		pipeTimeout, func(_ interface{}, err error) {
			d.releaseXceiver()
			if err != nil {
				env.Log.Errorf("Pipeline ack for blk_%d failed at %s: %s", req.Block, d.name, err)
				respond(nil, err)
				return
			}
			d.reportFinalized(req.Block)
			respond("ack", nil)
		})
}

// onMirror is a downstream pipeline stage.
func (d *DataNode) onMirror(m simnet.Message, respond func(interface{}, error)) {
	env := d.env()
	if !d.started || d.failed {
		return
	}
	req, ok := m.Payload.(writeReq)
	if !ok {
		respond(nil, fmt.Errorf("dfs: malformed mirror"))
		return
	}
	if err := d.acquireXceiver(); err != nil {
		env.Log.Errorf("Xceiver pool exhausted on %s, rejecting blk_%d", d.name, req.Block)
		respond(nil, err)
		return
	}
	if err := d.storeReplica(req.Block, req.Data); err != nil {
		env.Log.Errorf("Failed to write replica blk_%d on %s: %s", req.Block, d.name, err)
		d.releaseXceiver()
		respond(nil, err)
		return
	}
	downstream := req.Pipeline[1:]
	if len(downstream) == 0 {
		d.releaseXceiver()
		d.reportFinalized(req.Block)
		respond("ack", nil)
		return
	}
	next := downstream[0]
	env.Net.Call("dfs.datanode.mirror-rpc",
		d.c.msg(d.name, next, "dfs.mirror", writeReq{Block: req.Block, Data: req.Data, Pipeline: downstream}),
		pipeTimeout, func(_ interface{}, err error) {
			d.releaseXceiver()
			if err != nil {
				env.Log.Errorf("Pipeline ack for blk_%d failed at %s: %s", req.Block, d.name, err)
				respond(nil, err)
				return
			}
			d.reportFinalized(req.Block)
			respond("ack", nil)
		})
}

func (d *DataNode) storeReplica(block int64, data string) error {
	env := d.env()
	path := d.name + "/blk_" + strconv.FormatInt(block, 10)
	if err := env.Disk.Write("dfs.datanode.write-replica", path, []byte(data)); err != nil {
		return err
	}
	if err := env.Disk.Sync("dfs.datanode.sync-replica", path); err != nil {
		return err
	}
	return nil
}

// reportFinalized tells the namenode this replica is complete.
func (d *DataNode) reportFinalized(block int64) {
	env := d.env()
	d.c.NN.reportReplica(block, d.name)
	env.Log.Debugf("Finalized replica blk_%d on %s", block, d.name)
}

// readReq is a token-authorized block read.
type readReq struct {
	Block int64
	Token blockToken
}

// onReadBlock validates the token and serves the replica.
func (d *DataNode) onReadBlock(m simnet.Message, respond func(interface{}, error)) {
	env := d.env()
	if !d.started || d.failed {
		return
	}
	req, ok := m.Payload.(readReq)
	if !ok {
		respond(nil, fmt.Errorf("dfs: malformed read"))
		return
	}
	if env.Sim.Now() > req.Token.Expiry {
		env.Log.Warnf("Invalid block token for blk_%d from %s: token expired", req.Block, m.From)
		respond(nil, fmt.Errorf("dfs: invalid block token for blk_%d", req.Block))
		return
	}
	data, err := env.Disk.Read("dfs.datanode.read-replica", d.name+"/blk_"+strconv.FormatInt(req.Block, 10))
	if err != nil {
		env.Log.Errorf("Failed to read replica blk_%d on %s: %s", req.Block, d.name, err)
		respond(nil, err)
		return
	}
	respond(string(data), nil)
}

// onRecover finalizes the last block of an abandoned file. The disk sync is
// the recovery's fault boundary (HD-12070, f7).
func (d *DataNode) onRecover(m simnet.Message, respond func(interface{}, error)) {
	env := d.env()
	if !d.started || d.failed {
		return
	}
	block, _ := m.Payload.(int64)
	env.Log.Infof("Recovering blk_%d on %s", block, d.name)
	path := d.name + "/blk_" + strconv.FormatInt(block, 10)
	if err := env.Disk.Sync("dfs.datanode.recover-finalize", path); err != nil {
		env.Log.Errorf("Replica recovery of blk_%d failed on %s: %s", block, d.name, err)
		respond(nil, err)
		return
	}
	d.reportFinalized(block)
	respond("ok", nil)
}

// transferReq asks a replica holder to copy a block to another datanode.
type transferReq struct {
	Block  int64
	Target string
}

// onTransferBlock serves the replication monitor: read the local replica
// and mirror it to the under-replicated target.
func (d *DataNode) onTransferBlock(m simnet.Message, respond func(interface{}, error)) {
	env := d.env()
	if !d.started || d.failed {
		return
	}
	req, ok := m.Payload.(transferReq)
	if !ok {
		respond(nil, fmt.Errorf("dfs: malformed transfer"))
		return
	}
	data, err := env.Disk.Read("dfs.datanode.transfer-read", d.name+"/blk_"+strconv.FormatInt(req.Block, 10))
	if err != nil {
		env.Log.Warnf("Cannot read blk_%d for transfer on %s: %s", req.Block, d.name, err)
		respond(nil, err)
		return
	}
	env.Net.Call("dfs.datanode.transfer-rpc",
		d.c.msg(d.name, req.Target, "dfs.mirror", writeReq{Block: req.Block, Data: string(data), Pipeline: []string{req.Target}}),
		pipeTimeout, func(_ interface{}, err error) {
			if err != nil {
				env.Log.Warnf("Transfer of blk_%d to %s failed: %s", req.Block, req.Target, err)
				respond(nil, err)
				return
			}
			respond("ok", nil)
		})
}

// onMoveBlock serves balancer move requests.
func (d *DataNode) onMoveBlock(m simnet.Message, respond func(interface{}, error)) {
	env := d.env()
	if !d.started || d.failed {
		return
	}
	block, _ := m.Payload.(int64)
	env.Log.Debugf("Balancer moved blk_%d to %s", block, d.name)
	respond("ok", nil)
}
