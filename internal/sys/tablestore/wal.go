package tablestore

import (
	"fmt"
	"strconv"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
)

// walEntry is one append to the write-ahead log.
type walEntry struct {
	seq   int64
	row   string
	value string
	flush bool // flush marker entries complete region flushes
}

// WAL is the asynchronous write-ahead log of one region server, modelled
// on HBase's AsyncFSWAL (Figure 1 of the paper):
//
//   - appends enter the unacked queue and a consumer event syncs them to
//     the underlying store stream in batches of at most batchSize;
//   - a broken stream rolls the writer and retries the unacked appends
//     with the fresh writer;
//   - log rolling calls waitForSafePoint, which blocks the roller until
//     the consumer reports readyForRolling.
//
// The HB-25905 (f17) defect: when a roll is requested while a freshly
// rolled writer still has more unacked appends than one sync batch can
// carry, the consumer returns without syncing or signalling, and nothing
// ever schedules it again — the roller hangs at waitForSafePoint forever
// and region flushes time out waiting for sync.
type WAL struct {
	rs *RegionServer

	epoch     int // current writer generation
	nextSeq   int64
	ackedSeq  int64
	unacked   []walEntry
	batchSize int

	streamBroken bool
	writerFresh  bool // new writer, nothing synced on it yet
	rolling      bool // rollWriter in progress
	consumerBusy bool

	rollRequested   bool
	readyForRolling bool
	safePoint       *des.Cond

	// files lists closed WAL file names (the replication queue feedstock).
	files []string

	// Names and bytes an append would otherwise build afresh: the consumer
	// thread's actor, the current file's path (valid for fileEpoch) and the
	// entry being encoded (the disk copies what it is handed).
	consumer  string
	file      string
	fileEpoch int
	rec       []byte
}

func newWAL(rs *RegionServer) *WAL {
	w := &WAL{rs: rs, batchSize: 3, consumer: rs.actor("wal-consumer")}
	w.safePoint = des.NewCond(rs.c.env.Sim, "waitForSafePoint")
	return w
}

func (w *WAL) env() *cluster.Env { return w.rs.c.env }

func (w *WAL) currentFile() string {
	if w.file == "" || w.fileEpoch != w.epoch {
		w.file, w.fileEpoch = w.rs.name+"/wal/log."+strconv.Itoa(w.epoch), w.epoch
	}
	return w.file
}

// open creates the initial writer.
func (w *WAL) open() error {
	env := w.env()
	if err := env.Disk.Create("ts.wal.create-writer", w.currentFile()); err != nil {
		return fmt.Errorf("cannot create WAL writer: %w", err)
	}
	if err := env.Disk.Append("ts.wal.write-header", w.currentFile(), []byte("WALHDR\n")); err != nil {
		// Defect (HB-18137): the empty, header-less WAL file is left in
		// place and the writer moves on to a fresh one.
		env.Log.Errorf("Failed to write WAL header of %s: %s", w.currentFile(), err)
		w.files = append(w.files, w.currentFile())
		w.epoch++
		return w.open()
	}
	return nil
}

// append queues one entry and wakes the consumer.
func (w *WAL) append(row, value string, flush bool) int64 {
	w.nextSeq++
	e := walEntry{seq: w.nextSeq, row: row, value: value, flush: flush}
	w.unacked = append(w.unacked, e)
	w.scheduleConsume(0)
	return e.seq
}

func (w *WAL) scheduleConsume(delay des.Time) {
	if w.consumerBusy {
		return
	}
	w.consumerBusy = true
	w.env().Sim.Schedule(w.consumer, delay, w.consume)
}

// consume is the WAL consumer event (Figure 1's consume()).
func (w *WAL) consume() {
	env := w.env()
	w.consumerBusy = false
	if w.rs.aborted {
		return
	}
	if w.streamBroken {
		w.rollWriter()
		return
	}
	if len(w.unacked) == 0 {
		if w.rollRequested && !w.readyForRolling {
			w.reachSafePoint()
		}
		return
	}
	if w.rollRequested && w.writerFresh && len(w.unacked) > w.batchSize {
		// Defect (HB-25905): stale state — the consumer neither syncs nor
		// signals, and no future event reschedules it.
		env.Log.Debugf("WAL consumer deferring sync on %s: %d unacked appends", w.rs.name, len(w.unacked))
		return
	}
	w.syncBatch()
}

// syncBatch ships up to batchSize unacked entries through the store
// stream. The per-entry stream write is the root-cause fault boundary of
// f17 (the channelRead0 analog).
func (w *WAL) syncBatch() {
	env := w.env()
	n := len(w.unacked)
	if n > w.batchSize {
		n = w.batchSize
	}
	for i := 0; i < n; i++ {
		if err := env.FI.Reach("ts.wal.stream-write", inject.IO); err != nil {
			// The recoverable stream broke: notify the upper layer to roll
			// the writer and retry the unacked appends.
			env.Log.Errorf("WAL stream broken on %s, %d unacked appends pending", w.rs.name, len(w.unacked))
			w.streamBroken = true
			w.scheduleConsume(0)
			return
		}
		entry := w.unacked[i]
		w.rec = appendWALEntry(w.rec[:0], entry)
		if err := env.Disk.Append("ts.wal.append-entry", w.currentFile(), w.rec); err != nil {
			env.Log.Errorf("WAL append of seq %d failed on %s: %s", entry.seq, w.rs.name, err)
			w.streamBroken = true
			w.scheduleConsume(0)
			return
		}
	}
	acked := w.unacked[:n]
	w.unacked = append([]walEntry(nil), w.unacked[n:]...)
	w.writerFresh = false
	for _, e := range acked {
		if e.seq > w.ackedSeq {
			w.ackedSeq = e.seq
		}
	}
	env.Log.Debugf("WAL synced %d entries on %s up to seq %d", n, w.rs.name, w.ackedSeq)
	w.rs.onWALAcked(w.ackedSeq)
	if len(w.unacked) > 0 {
		w.scheduleConsume(5 * des.Millisecond)
		return
	}
	if w.rollRequested && !w.readyForRolling {
		w.reachSafePoint()
	}
}

// rollWriter replaces a broken writer with a fresh one; creating the file
// on the underlying store takes a while, during which appends accumulate.
func (w *WAL) rollWriter() {
	env := w.env()
	if w.rolling {
		return
	}
	w.rolling = true
	env.Sim.Schedule(w.consumer, 80*des.Millisecond, func() {
		w.rolling = false
		if w.rs.aborted {
			return
		}
		w.files = append(w.files, w.currentFile())
		w.epoch++
		if err := w.open(); err != nil {
			env.Log.Errorf("Failed to roll WAL writer on %s: %s", w.rs.name, err)
			w.rs.abort(err)
			return
		}
		w.streamBroken = false
		w.writerFresh = true
		env.Log.Infof("Rolled WAL writer on %s to %s, retrying %d unacked appends", w.rs.name, w.currentFile(), len(w.unacked))
		w.rs.onWALRoll()
		w.scheduleConsume(0)
	})
}

func (w *WAL) reachSafePoint() {
	env := w.env()
	w.readyForRolling = true
	env.Log.Debugf("WAL on %s reached safe point for rolling", w.rs.name)
	w.safePoint.Broadcast()
}

// waitForSafePoint is called by the log roller before swapping WAL files.
// The roller blocks until the consumer signals readiness — or forever,
// when the f17 defect bites.
func (w *WAL) waitForSafePoint(onReady func()) {
	w.rollRequested = true
	w.readyForRolling = false
	w.scheduleConsume(0)
	w.safePoint.Wait(w.rs.actor("log-roller"), func() {
		w.rollRequested = false
		onReady()
	})
}

// completeRoll finishes a scheduled (non-broken) roll: the current file is
// closed and handed to replication, and a new writer opens.
func (w *WAL) completeRoll() error {
	env := w.env()
	w.files = append(w.files, w.currentFile())
	w.epoch++
	if err := w.open(); err != nil {
		return err
	}
	w.writerFresh = true
	env.Log.Infof("Rolled WAL on %s, now writing %s", w.rs.name, w.currentFile())
	w.rs.onWALRoll()
	return nil
}

// appendWALEntry appends the entry's on-disk line, "seq|kind|row|value\n".
func appendWALEntry(dst []byte, e walEntry) []byte {
	kind := "put"
	if e.flush {
		kind = "flush"
	}
	dst = strconv.AppendInt(dst, e.seq, 10)
	dst = append(dst, '|')
	dst = append(dst, kind...)
	dst = append(dst, '|')
	dst = append(dst, e.row...)
	dst = append(dst, '|')
	dst = append(dst, e.value...)
	return append(dst, '\n')
}
