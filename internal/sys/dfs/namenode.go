package dfs

import (
	"fmt"
	"sort"
	"strconv"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/simnet"
	"anduril/internal/textrec"
)

// fileMeta is one namespace entry.
type fileMeta struct {
	path        string
	blocks      []int64
	open        bool
	leaseHolder string
	leaseSince  des.Time
}

// blockToken authorizes reads of one block for a limited time.
type blockToken struct {
	Block  int64
	Expiry des.Time
}

// tokenLifetime is deliberately short so read workloads exercise the token
// renewal path of HD-16332.
const tokenLifetime = 200 * des.Millisecond

// NameNode holds the namespace and block map.
type NameNode struct {
	c    *Cluster
	name string

	files      map[string]*fileMeta
	blockLocs  map[int64][]string
	nextBlock  int64
	registered map[string]bool
	safeMode   bool

	editCount int

	// checkpointBusy latches while a checkpoint runs. HD-4233 (f5): a
	// failed edit-log roll never clears it, so checkpointing stops forever
	// while the namenode keeps serving.
	checkpointBusy bool

	// recovering tracks files currently under lease recovery.
	recovering map[string]bool
}

func newNameNode(c *Cluster) *NameNode {
	return &NameNode{
		c: c, name: "nn",
		files:      make(map[string]*fileMeta),
		blockLocs:  make(map[int64][]string),
		registered: make(map[string]bool),
		recovering: make(map[string]bool),
	}
}

func (n *NameNode) env() *cluster.Env { return n.c.env }

func (n *NameNode) start() {
	env := n.env()
	net := env.Net
	net.Handle(n.name, "dfs.register", "nn-rpc", n.onRegister)
	net.Handle(n.name, "dfs.heartbeat", "nn-rpc", n.onHeartbeat)
	net.Handle(n.name, "dfs.create", "nn-rpc", n.onCreate)
	net.Handle(n.name, "dfs.addblock", "nn-rpc", n.onAddBlock)
	net.Handle(n.name, "dfs.complete", "nn-rpc", n.onComplete)
	net.Handle(n.name, "dfs.open", "nn-rpc", n.onOpen)
	net.Handle(n.name, "dfs.renew-token", "nn-rpc", n.onRenewToken)
	net.Handle(n.name, "dfs.roll-edits", "nn-ckpt", n.onRollEdits)
	net.Handle(n.name, "dfs.get-image", "nn-ckpt", n.onGetImage)
	net.Handle(n.name, "dfs.finalize-ckpt", "nn-ckpt", n.onFinalizeCheckpoint)
	net.Handle(n.name, "dfs.getblocks", "nn-rpc", n.onGetBlocks)

	n.safeMode = true
	env.Sim.Go("nn-main", func() {
		env.Log.Infof("NameNode starting in safe mode, formatting namespace")
		if err := env.Disk.Create("dfs.namenode.create-editlog", "nn/edits"); err != nil {
			env.Log.Errorf("Failed to initialize edit log: %s", err)
			return
		}
		if err := env.Disk.Write("dfs.namenode.write-fsimage", "nn/fsimage", []byte("IMG|0\n")); err != nil {
			env.Log.Errorf("Failed to write initial fsimage: %s", err)
			return
		}
		env.Log.Infof("NameNode started, waiting for datanode reports")
	})

	net.Handle(n.name, "dfs.blockreport", "nn-rpc", n.onBlockReport)

	// Lease monitor: expired writer leases trigger block recovery.
	env.Sim.Every("nn-lease-monitor", 250*des.Millisecond, func() {
		n.checkLeases()
	})

	// Replication monitor: re-replicate under-replicated blocks.
	env.Sim.Every("nn-replication-monitor", 300*des.Millisecond, func() {
		n.checkReplication()
	})
}

// onBlockReport receives a datanode's periodic replica inventory.
func (n *NameNode) onBlockReport(m simnet.Message, _ func(interface{}, error)) {
	env := n.env()
	count, _ := m.Payload.(int)
	env.Log.Debugf("Processed block report from %s with %d replicas", m.From, count)
}

// checkReplication asks a replica holder to transfer under-replicated
// blocks to a node that lacks them — background repair traffic that keeps
// the cluster (and the fault space) busy, like the real namenode's
// redundancy monitor.
func (n *NameNode) checkReplication() {
	env := n.env()
	// Iterate blocks in sorted order: ranging over the map directly would
	// let Go's randomized iteration pick which under-replicated block the
	// sweep repairs, breaking run-to-run determinism for a fixed seed.
	blocks := make([]int64, 0, len(n.blockLocs))
	for b := range n.blockLocs {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, block := range blocks {
		locs := n.blockLocs[block]
		if len(locs) == 0 || len(locs) >= 3 {
			continue
		}
		var target string
		for _, dn := range n.c.DNs {
			if !dn.started || dn.failed {
				continue
			}
			holds := false
			for _, l := range locs {
				if l == dn.name {
					holds = true
					break
				}
			}
			if !holds {
				target = dn.name
				break
			}
		}
		if target == "" {
			continue
		}
		blk := block
		src := locs[0]
		env.Log.Debugf("Scheduling re-replication of blk_%d from %s to %s", blk, src, target)
		env.Net.Call("dfs.namenode.replicate-rpc",
			n.c.msg(n.name, src, "dfs.transfer-block", transferReq{Block: blk, Target: target}),
			rpcTimeout, func(_ interface{}, err error) {
				if err != nil {
					env.Log.Warnf("Re-replication of blk_%d failed, will retry: %s", blk, err)
					return
				}
				env.Log.Infof("Re-replicated blk_%d to %s", blk, target)
			})
		return // one transfer per sweep
	}
}

// logEdit appends one operation to the edit log; namespace mutations are
// durable before they are acknowledged.
func (n *NameNode) logEdit(op string) error {
	env := n.env()
	var buf [64]byte
	rec := textrec.AppendRecord(buf[:0], int64(n.editCount), op)
	if err := env.Disk.Append("dfs.namenode.append-edits", "nn/edits", rec); err != nil {
		return fmt.Errorf("edit log append failed: %w", err)
	}
	n.editCount++
	return nil
}

func (n *NameNode) onRegister(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	n.registered[m.From] = true
	env.Log.Infof("Registered datanode %s", m.From)
	// Leave safe mode once a majority of datanodes has reported.
	if n.safeMode && len(n.registered) >= len(n.c.DNs)/2+1 {
		n.safeMode = false
		env.Log.Infof("Safe mode is OFF after %d datanode reports", len(n.registered))
	}
	respond("ok", nil)
}

func (n *NameNode) onHeartbeat(m simnet.Message, _ func(interface{}, error)) {
	env := n.env()
	if !n.registered[m.From] {
		env.Log.Warnf("Heartbeat from unregistered datanode %s", m.From)
	}
}

func (n *NameNode) onCreate(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	path, _ := m.Payload.(string)
	if n.safeMode {
		env.Log.Warnf("Cannot create %s: name node is in safe mode", path)
		respond(nil, fmt.Errorf("dfs: name node is in safe mode"))
		return
	}
	if f, ok := n.files[path]; ok && f.open {
		respond(nil, fmt.Errorf("dfs: %s already open by %s", path, f.leaseHolder))
		return
	}
	if err := n.logEdit("OPEN " + path); err != nil {
		env.Log.Errorf("Cannot journal create of %s: %s", path, err)
		respond(nil, err)
		return
	}
	n.files[path] = &fileMeta{path: path, open: true, leaseHolder: m.From, leaseSince: env.Sim.Now()}
	env.Log.Infof("Allocated file %s with lease for %s", path, m.From)
	respond("ok", nil)
}

// addBlockReply carries a new block allocation to the writer.
type addBlockReply struct {
	Block    int64
	Pipeline []string
}

func (n *NameNode) onAddBlock(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	path, _ := m.Payload.(string)
	f, ok := n.files[path]
	if !ok || !f.open {
		respond(nil, fmt.Errorf("dfs: no open file %s", path))
		return
	}
	f.leaseSince = env.Sim.Now()
	n.nextBlock++
	blk := n.nextBlock
	if err := n.logEdit("ADDBLOCK " + path + " blk_" + strconv.FormatInt(blk, 10)); err != nil {
		env.Log.Errorf("Cannot journal block allocation for %s: %s", path, err)
		respond(nil, err)
		return
	}
	f.blocks = append(f.blocks, blk)
	pipe := n.c.pipeline(blk, 3)
	env.Log.Debugf("Allocated blk_%d for %s with pipeline %v", blk, path, pipe)
	respond(addBlockReply{Block: blk, Pipeline: pipe}, nil)
}

func (n *NameNode) onComplete(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	path, _ := m.Payload.(string)
	f, ok := n.files[path]
	if !ok {
		respond(nil, fmt.Errorf("dfs: no file %s", path))
		return
	}
	if err := n.logEdit("CLOSE " + path); err != nil {
		env.Log.Errorf("Cannot journal close of %s: %s", path, err)
		respond(nil, err)
		return
	}
	f.open = false
	f.leaseHolder = ""
	env.Log.Infof("File %s closed with %d blocks", path, len(f.blocks))
	respond("ok", nil)
}

// openReply carries block locations and a read token.
type openReply struct {
	Blocks    []int64
	Locations map[int64][]string
	Token     blockToken
}

func (n *NameNode) onOpen(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	path, _ := m.Payload.(string)
	f, ok := n.files[path]
	if !ok {
		respond(nil, fmt.Errorf("dfs: no file %s", path))
		return
	}
	locs := make(map[int64][]string, len(f.blocks))
	for _, b := range f.blocks {
		locs[b] = n.blockLocs[b]
	}
	tok := blockToken{Expiry: env.Sim.Now() + tokenLifetime}
	env.Log.Debugf("Opened %s for read by %s (%d blocks)", path, m.From, len(f.blocks))
	respond(openReply{Blocks: f.blocks, Locations: locs, Token: tok}, nil)
}

func (n *NameNode) onRenewToken(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	tok := blockToken{Expiry: env.Sim.Now() + tokenLifetime}
	env.Log.Debugf("Issued fresh block token to %s", m.From)
	respond(tok, nil)
}

// reportReplica records that a datanode holds a finalized replica.
func (n *NameNode) reportReplica(block int64, dn string) {
	for _, d := range n.blockLocs[block] {
		if d == dn {
			return
		}
	}
	n.blockLocs[block] = append(n.blockLocs[block], dn)
}

// checkLeases runs the lease monitor: leases idle past the hard limit are
// recovered by asking the primary replica holder to finalize the last
// block. HD-12070 (f7): a failed recovery RPC removes the lease from the
// monitor's queue without closing the file, so the file stays open forever
// and is never recovered again.
func (n *NameNode) checkLeases() {
	env := n.env()
	// Sorted paths, not map order: the order leases are recovered in
	// schedules RPCs and therefore must be deterministic per seed.
	paths := make([]string, 0, len(n.files))
	for p := range n.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		f := n.files[p]
		if !f.open || f.leaseHolder == "" || n.recovering[f.path] {
			continue
		}
		if env.Sim.Now()-f.leaseSince < 500*des.Millisecond {
			continue
		}
		if len(f.blocks) == 0 {
			f.open = false
			continue
		}
		lastBlock := f.blocks[len(f.blocks)-1]
		locs := n.blockLocs[lastBlock]
		primary := dnName(int(lastBlock)%len(n.c.DNs) + 1)
		if len(locs) > 0 {
			primary = locs[0]
		}
		n.recovering[f.path] = true
		file := f
		env.Log.Warnf("Lease expired for %s held by %s, starting block recovery of blk_%d on %s",
			file.path, file.leaseHolder, lastBlock, primary)
		env.Net.Call("dfs.namenode.recover-rpc", n.c.msg(n.name, primary, "dfs.recover", lastBlock),
			rpcTimeout, func(_ interface{}, err error) {
				if err != nil {
					env.Log.Errorf("Block recovery failed for %s: %s", file.path, err)
					// Defect (HD-12070): the lease is dropped from the
					// monitor queue but the file is never closed, leaving
					// it open indefinitely.
					file.leaseHolder = ""
					return
				}
				n.recovering[file.path] = false
				file.open = false
				file.leaseHolder = ""
				env.Log.Infof("Lease recovered, file closed: %s", file.path)
			})
	}
}

// onRollEdits serves the secondary's request to roll the edit log before a
// checkpoint. HD-4233 (f5): a failed roll leaves checkpointBusy latched.
func (n *NameNode) onRollEdits(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	if n.checkpointBusy {
		env.Log.Warnf("Skipping checkpoint: another checkpoint is in progress")
		respond(nil, fmt.Errorf("dfs: checkpoint already in progress"))
		return
	}
	n.checkpointBusy = true
	edits, err := env.Disk.Read("dfs.namenode.read-edits", "nn/edits")
	if err != nil {
		env.Log.Errorf("Failed to roll edit log")
		// Defect (HD-4233): checkpointBusy is never cleared on this path,
		// yet the namenode keeps serving without any backup.
		respond(nil, err)
		return
	}
	if err := env.Disk.Rename("dfs.namenode.rename-edits", "nn/edits", "nn/edits.rolled"); err != nil {
		env.Log.Errorf("Failed to roll edit log: %s", err)
		respond(nil, err)
		return
	}
	if err := env.Disk.Create("dfs.namenode.create-editlog", "nn/edits"); err != nil {
		env.Log.Errorf("Failed to reopen edit log after roll: %s", err)
		respond(nil, err)
		return
	}
	env.Log.Infof("Rolled edit log with %d entries for checkpoint", n.editCount)
	respond(string(edits), nil)
}

func (n *NameNode) onGetImage(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	img, err := env.Disk.Read("dfs.namenode.read-fsimage", "nn/fsimage")
	if err != nil {
		env.Log.Errorf("Failed to serve fsimage: %s", err)
		respond(nil, err)
		return
	}
	respond(string(img), nil)
}

// checkpointDone carries the merged image (empty when the transfer failed
// upstream — the HD-12248 defect accepts it anyway).
type checkpointDone struct {
	Image string
}

func (n *NameNode) onFinalizeCheckpoint(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	done, _ := m.Payload.(checkpointDone)
	if done.Image != "" {
		if err := env.Disk.Write("dfs.namenode.write-fsimage", "nn/fsimage", []byte(done.Image)); err != nil {
			env.Log.Errorf("Failed to install checkpointed fsimage: %s", err)
			respond(nil, err)
			return
		}
		env.Log.Infof("Installed new fsimage from checkpoint")
	}
	// Defect (HD-12248): the rolled edits are discarded even when no new
	// image was installed, so the backup silently loses the operations.
	if env.Disk.Exists("nn/edits.rolled") {
		if err := env.Disk.Delete("dfs.namenode.delete-rolled-edits", "nn/edits.rolled"); err != nil {
			env.Log.Warnf("Could not remove rolled edits: %s", err)
		}
	}
	n.checkpointBusy = false
	env.Log.Infof("Checkpoint finished")
	respond("ok", nil)
}

// onGetBlocks serves the balancer's block-distribution query.
func (n *NameNode) onGetBlocks(m simnet.Message, respond func(interface{}, error)) {
	env := n.env()
	dist := make(map[string]int)
	for _, locs := range n.blockLocs {
		for _, dn := range locs {
			dist[dn]++
		}
	}
	env.Log.Debugf("Serving block distribution to %s", m.From)
	respond(dist, nil)
}
