package tablestore

import (
	"fmt"
	"strconv"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/simnet"
)

// mutation is one cell write.
type mutation struct {
	Row   string
	Value string
}

// batchReq is a multi-mutation request; Atomic batches reject wholesale on
// any decode error, non-atomic ones degrade per-mutation (Figure 4).
type batchReq struct {
	Region    string
	Mutations []mutation
	Atomic    bool
}

// RegionServer hosts regions, their memstores and the WAL.
type RegionServer struct {
	c    *Cluster
	id   int
	name string

	aborted bool
	wal     *WAL
	store   map[string]string

	flushWaiters []flushWaiter
	rollerBusy   bool

	repl *ReplicationSource
}

type flushWaiter struct {
	seq    int64
	region string
	done   *bool
}

func newRegionServer(c *Cluster, id int, withRepl bool) *RegionServer {
	rs := &RegionServer{c: c, id: id, name: rsName(id), store: make(map[string]string)}
	rs.wal = newWAL(rs)
	if withRepl {
		rs.repl = newReplicationSource(rs)
	}
	return rs
}

func (rs *RegionServer) env() *cluster.Env { return rs.c.env }

func (rs *RegionServer) actor(thread string) string { return rs.name + "-" + thread }

func (rs *RegionServer) start() {
	env := rs.env()
	net := env.Net
	net.Handle(rs.name, "ts.batch", rs.actor("rpc"), rs.onBatch)
	net.Handle(rs.name, "ts.get", rs.actor("rpc"), rs.onGet)
	net.Handle(rs.name, "ts.claim-queue", rs.actor("repl"), rs.onClaimQueue)
	net.Handle(rs.name, "ts.split-task", rs.actor("split"), rs.onSplitTask)
	net.Handle(rs.name, "ts.open-region", rs.actor("rpc"), rs.onOpenRegion)

	env.Sim.Go(rs.actor("main"), func() {
		env.Log.Infof("Region server %s starting", rs.name)
		if err := rs.wal.open(); err != nil {
			env.Log.Errorf("Cannot open WAL on %s: %s", rs.name, err)
			rs.abort(err)
			return
		}
		env.Log.Infof("Region server %s online", rs.name)
	})

	env.Sim.Every(rs.actor("heartbeat"), 150*des.Millisecond, func() {
		if rs.aborted {
			return
		}
		err := env.Net.Send("ts.rs.send-heartbeat", rs.c.msg(rs.name, "hmaster", "ts.heartbeat", rs.id))
		if err != nil {
			env.Log.Warnf("Heartbeat from %s failed: %s", rs.name, err)
		}
	})

	// Periodic memstore flush: append a flush marker and wait for the WAL
	// sync. A timeout here is the user-visible symptom of HB-25905.
	env.Sim.Every(rs.actor("flusher"), 300*des.Millisecond, func() {
		if rs.aborted {
			return
		}
		rs.flushRegion("region-" + rs.name)
	})

	// Periodic compaction: fold the memstore into an on-disk store file
	// once it is large enough.
	env.Sim.Every(rs.actor("compaction"), 500*des.Millisecond, func() {
		if rs.aborted || len(rs.store) < 4 {
			return
		}
		path := rs.name + "/store/compacted-" + strconv.Itoa(int(env.Sim.Now()/des.Millisecond))
		if err := env.Disk.Write("ts.region.compact-write", path, []byte(strconv.Itoa(len(rs.store))+" cells\n")); err != nil {
			env.Log.Warnf("Compaction failed on %s, will retry: %s", rs.name, err)
			return
		}
		env.Log.Debugf("Compacted %d cells into %s", len(rs.store), path)
	})

	// Periodic log roller: the thread that hangs at waitForSafePoint.
	env.Sim.Every(rs.actor("log-roller"), 400*des.Millisecond, func() {
		if rs.aborted || rs.rollerBusy {
			return
		}
		rs.rollerBusy = true
		env.Log.Debugf("Log roller requesting roll on %s", rs.name)
		rs.wal.waitForSafePoint(func() {
			rs.rollerBusy = false
			if err := rs.wal.completeRoll(); err != nil {
				env.Log.Errorf("WAL roll failed on %s: %s", rs.name, err)
				rs.abort(err)
			}
		})
	})

	if rs.repl != nil {
		rs.repl.start()
	}
}

// abort is the region server's generic failure policy: like HBase, any
// unexpected exception aborts the whole process.
func (rs *RegionServer) abort(err error) {
	if rs.aborted {
		return
	}
	rs.aborted = true
	// Like the production incident, the abort message does not say why —
	// the cause is "an unknown transient failure" (the paper's hardest
	// case, f16, hinges on exactly this opacity).
	rs.env().Log.Errorf("Aborting region server %s: unexpected exception", rs.name)
	_ = err
}

// Kill simulates an abrupt process death (used by crash workloads).
func (rs *RegionServer) Kill() {
	if rs.aborted {
		return
	}
	rs.aborted = true
	rs.env().Log.Warnf("Region server %s process exited", rs.name)
}

// onBatch applies a batch of mutations. HB-19876 (f14): a decode failure
// in a non-atomic batch is tolerated per-mutation, but the shared cell
// scanner is not advanced past the bad cell, so every later mutation in
// the batch reads the previous mutation's value.
func (rs *RegionServer) onBatch(m simnet.Message, respond func(interface{}, error)) {
	env := rs.env()
	if rs.aborted {
		return
	}
	req, ok := m.Payload.(batchReq)
	if !ok {
		respond(nil, fmt.Errorf("ts: malformed batch"))
		return
	}
	scannerSkew := 0
	applied := 0
	for i, mut := range req.Mutations {
		if err := env.FI.Reach("ts.region.decode-mutation", inject.IO); err != nil {
			if req.Atomic {
				env.Log.Warnf("Atomic batch for %s rejected: cannot convert mutation %d: %s", req.Region, i, err)
				respond(nil, fmt.Errorf("ts: batch decode failed: %w", err))
				return
			}
			env.Log.Warnf("Failed to convert mutation %d in batch for %s", i, req.Region)
			// Defect (HB-19876): the cell scanner is left pointing at the
			// failed cell.
			scannerSkew++
			continue
		}
		value := mut.Value
		if scannerSkew > 0 && i-scannerSkew >= 0 {
			value = req.Mutations[i-scannerSkew].Value // corrupted read
		}
		rs.store[mut.Row] = value
		rs.wal.append(mut.Row, value, false)
		applied++
	}
	env.Log.Debugf("Applied batch of %d mutations to %s on %s", applied, req.Region, rs.name)
	respond(applied, nil)
}

// onOpenRegion handles the master's region assignment.
func (rs *RegionServer) onOpenRegion(m simnet.Message, _ func(interface{}, error)) {
	env := rs.env()
	if rs.aborted {
		return
	}
	region, _ := m.Payload.(string)
	env.Log.Infof("Opened %s on %s", region, rs.name)
}

func (rs *RegionServer) onGet(m simnet.Message, respond func(interface{}, error)) {
	if rs.aborted {
		return
	}
	row, _ := m.Payload.(string)
	val, ok := rs.store[row]
	if !ok {
		respond(nil, fmt.Errorf("ts: no row %s", row))
		return
	}
	respond(val, nil)
}

// flushRegion appends a flush marker and waits (with timeout) for the WAL
// consumer to sync it.
func (rs *RegionServer) flushRegion(region string) {
	env := rs.env()
	seq := rs.wal.append(region, "", true)
	done := new(bool)
	rs.flushWaiters = append(rs.flushWaiters, flushWaiter{seq: seq, region: region, done: done})
	env.Sim.Schedule(rs.actor("flusher"), 250*des.Millisecond, func() {
		if *done || rs.aborted {
			return
		}
		env.Log.Errorf("TimeoutIOException: Failed to get sync result after 250ms for flush of %s", region)
	})
}

// onWALAcked resolves flush waiters once their marker is durable.
func (rs *RegionServer) onWALAcked(acked int64) {
	env := rs.env()
	remaining := rs.flushWaiters[:0]
	for _, fw := range rs.flushWaiters {
		if fw.seq <= acked {
			*fw.done = true
			env.Log.Debugf("Flush of %s completed at seq %d", fw.region, fw.seq)
			continue
		}
		remaining = append(remaining, fw)
	}
	rs.flushWaiters = remaining
}

// onWALRoll hands newly closed WAL files to the replication source.
func (rs *RegionServer) onWALRoll() {
	if rs.repl != nil {
		rs.repl.refreshQueue()
	}
}
