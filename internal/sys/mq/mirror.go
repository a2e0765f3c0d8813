package mq

import (
	"strconv"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/simnet"
	"anduril/internal/textrec"
)

// Mirror replicates a topic from a source to a target cluster and
// maintains the offset-sync mapping that translates consumer offsets for
// failover (the MirrorMaker2 model of KA-10048, f20).
//
// The defect: when writing an offset-sync record fails, the in-memory
// mapping keeps the already-advanced target offset without the sync being
// durable or consistent — the next checkpoint translates consumer offsets
// too far ahead, and a failed-over consumer skips records.
type Mirror struct {
	env    *cluster.Env
	name   string
	source string
	target string
	topic  string
	group  string

	srcOffset int64
	dstOffset int64

	// syncSrc/syncDst are the latest offset-sync pair, used to translate
	// checkpoints. syncDst drifts when a sync write fails (the bug).
	syncSrc int64
	syncDst int64

	sinceSync int
}

// NewMirror creates the replicator between two brokers.
func NewMirror(env *cluster.Env, source, target, topic, group string) *Mirror {
	return &Mirror{env: env, name: "mm2", source: source, target: target, topic: topic, group: group}
}

// Start begins the replication and checkpoint loops.
func (m *Mirror) Start() {
	env := m.env
	env.Sim.Go(m.name, func() {
		env.Log.Infof("Mirror %s replicating %s from %s to %s", m.name, m.topic, m.source, m.target)
	})
	env.Sim.Every(m.name, 50*des.Millisecond, func() { m.replicateBatch() })
	env.Sim.Every(m.name+"-checkpoint", 200*des.Millisecond, func() { m.checkpoint() })
}

// replicateBatch copies the next records and refreshes the offset sync
// every few records.
func (m *Mirror) replicateBatch() {
	env := m.env
	env.Net.Call("mq.mm2.poll-source", simnet.Message{
		From: m.name, To: m.source, Type: "mq.fetch",
		Payload: fetchReq{Topic: m.topic, Offset: m.srcOffset, Max: 3},
	}, 250*des.Millisecond, func(payload interface{}, err error) {
		if err != nil {
			env.Log.Warnf("Mirror poll of %s failed, will retry: %s", m.source, err)
			return
		}
		recs := payload.([]record)
		if len(recs) == 0 {
			return
		}
		m.shipRecords(recs, 0)
	})
}

func (m *Mirror) shipRecords(recs []record, i int) {
	env := m.env
	if i >= len(recs) {
		return
	}
	rec := recs[i]
	// Convert the record for the target cluster. Defect (KA-10048): with
	// errors.tolerance=all, a conversion failure silently drops the record
	// while the mirror's offsets — and therefore the offset-sync mapping —
	// advance as if it had been replicated.
	if err := env.FI.Reach("mq.mm2.convert-record", inject.IO); err != nil {
		env.Log.Warnf("Mirror dropped record at offset %d (errors.tolerance=all)", rec.Offset)
		m.srcOffset = rec.Offset + 1
		m.dstOffset++
		m.sinceSync++
		m.shipRecords(recs, i+1)
		return
	}
	env.Net.Call("mq.mm2.replicate-record", simnet.Message{
		From: m.name, To: m.target, Type: "mq.produce",
		Payload: produceReq{Topic: m.topic, Rec: rec},
	}, 250*des.Millisecond, func(payload interface{}, err error) {
		if err != nil {
			env.Log.Warnf("Mirror replication of offset %d failed, will retry: %s", rec.Offset, err)
			return
		}
		// MM2 tracks the target position with its own counter rather than
		// the broker's returned offset; after a tolerated drop the counter
		// overstates the target position — the heart of the f20 gap.
		m.srcOffset = rec.Offset + 1
		m.dstOffset++
		m.sinceSync++
		if m.sinceSync >= 4 {
			m.writeOffsetSync()
		}
		m.shipRecords(recs, i+1)
	})
}

// writeOffsetSync persists the (source offset -> target offset) mapping.
func (m *Mirror) writeOffsetSync() {
	env := m.env
	m.sinceSync = 0
	m.syncSrc = m.srcOffset
	m.syncDst = m.dstOffset
	if err := env.FI.Reach("mq.mm2.write-offset-sync", inject.IO); err != nil {
		env.Log.Warnf("Offset sync write failed at source offset %d, will retry next batch: %s", m.srcOffset, err)
		return
	}
	var buf [48]byte
	sync := textrec.AppendRecord(buf[:0], m.syncSrc, strconv.FormatInt(m.syncDst, 10))
	if err := env.Disk.Append("mq.mm2.append-sync-log", "mm2/offset-syncs", sync); err != nil {
		env.Log.Warnf("Offset sync log append failed: %s", err)
		return
	}
	env.Log.Debugf("Offset sync recorded: %d -> %d", m.syncSrc, m.syncDst)
}

// checkpoint translates the consumer group's committed source offset into
// a target-cluster checkpoint.
func (m *Mirror) checkpoint() {
	env := m.env
	env.Net.Call("mq.mm2.fetch-group-offset", simnet.Message{
		From: m.name, To: m.source, Type: "mq.fetch-committed",
		Payload: commitReq{Group: m.group, Topic: m.topic},
	}, 250*des.Millisecond, func(payload interface{}, err error) {
		if err != nil {
			env.Log.Warnf("Mirror checkpoint fetch failed: %s", err)
			return
		}
		committed := payload.(int64)
		if committed == 0 {
			return
		}
		translated := committed - m.syncSrc + m.syncDst
		if translated < 0 {
			translated = 0
		}
		env.Net.Call("mq.mm2.write-checkpoint", simnet.Message{
			From: m.name, To: m.target, Type: "mq.commit",
			Payload: commitReq{Group: m.group, Topic: m.topic, Offset: translated},
		}, 250*des.Millisecond, func(_ interface{}, err error) {
			if err != nil {
				env.Log.Warnf("Mirror checkpoint write failed: %s", err)
				return
			}
			env.Log.Debugf("Checkpointed group %s at translated offset %d", m.group, translated)
		})
	})
}

// GroupConsumer consumes the topic on the source cluster, committing
// offsets, and fails over to the target cluster when asked.
type GroupConsumer struct {
	env     *cluster.Env
	name    string
	broker  string
	topic   string
	group   string
	offset  int64
	lastSeq int64
	failed  bool
}

// NewGroupConsumer creates the consumer on the given cluster.
func NewGroupConsumer(env *cluster.Env, name, broker, topic, group string) *GroupConsumer {
	return &GroupConsumer{env: env, name: name, broker: broker, topic: topic, group: group}
}

// Start begins the poll/commit loop.
func (g *GroupConsumer) Start() {
	env := g.env
	env.Sim.Every(g.name, 60*des.Millisecond, func() {
		if g.failed {
			return
		}
		g.pollOnce()
	})
}

func (g *GroupConsumer) pollOnce() {
	env := g.env
	env.Net.Call("mq.consumer.poll", simnet.Message{
		From: g.name, To: g.broker, Type: "mq.fetch",
		Payload: fetchReq{Topic: g.topic, Offset: g.offset, Max: 5},
	}, 250*des.Millisecond, func(payload interface{}, err error) {
		if err != nil {
			env.Log.Warnf("Consumer %s poll failed: %s", g.name, err)
			return
		}
		recs := payload.([]record)
		for _, rec := range recs {
			if g.lastSeq > 0 && rec.Seq > g.lastSeq+1 {
				env.Log.Errorf("Data gap detected after failover: expected seq %d got %d on %s",
					g.lastSeq+1, rec.Seq, g.broker)
			}
			if rec.Seq > g.lastSeq {
				g.lastSeq = rec.Seq
			}
			g.offset = rec.Offset + 1
		}
		if len(recs) > 0 {
			env.Net.Call("mq.consumer.commit", simnet.Message{
				From: g.name, To: g.broker, Type: "mq.commit",
				Payload: commitReq{Group: g.group, Topic: g.topic, Offset: g.offset},
			}, 250*des.Millisecond, func(_ interface{}, err error) {
				if err != nil {
					env.Log.Warnf("Consumer %s commit failed: %s", g.name, err)
				}
			})
		}
	})
}

// Failover switches the consumer to the target cluster, resuming from the
// mirrored checkpoint.
func (g *GroupConsumer) Failover(target string) {
	env := g.env
	g.failed = true
	env.Log.Warnf("Consumer %s failing over from %s to %s", g.name, g.broker, target)
	env.Net.Call("mq.consumer.fetch-checkpoint", simnet.Message{
		From: g.name, To: target, Type: "mq.fetch-committed",
		Payload: commitReq{Group: g.group, Topic: g.topic},
	}, 250*des.Millisecond, func(payload interface{}, err error) {
		if err != nil {
			env.Log.Errorf("Consumer %s failover checkpoint fetch failed: %s", g.name, err)
			return
		}
		g.broker = target
		g.offset = payload.(int64)
		g.failed = false
		env.Log.Infof("Consumer %s resumed on %s at offset %d", g.name, target, g.offset)
	})
}
