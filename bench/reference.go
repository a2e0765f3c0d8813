package main

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// The sandbox this benchmark runs in is a small VM with neighbours. Its
// memory system slows and recovers by ±20 % over minutes, and the latency
// of a durable write on its disk moves by up to five times; no amount of
// repetition inside one run averages that out, and raw wall-clock medians
// of identical runs differ by 20 % (in process) to 90 % (through the
// daemon). So timed work is bracketed by a reference task — fixed code in
// this file, independent of the program under test, straining the same
// resource — and end-to-end times are reported at the speed at which the
// reference takes its nominal time:
//
//	reported = measured × nominal ÷ reference measured alongside
//
// A change to the program moves the measured time and not the reference,
// so it shows in full; a slow minute of the machine moves both and
// cancels. Sizing runs: spread of ten-second medians 23.5 % raw → 4.2 %
// against refCPU; per-second daemon medians 69 % raw → 15 % against the
// concurrent disk reference. Raw medians are logged next to each result,
// and per-layer metrics are never scaled.

// refCPUNominal is what refCPU takes on the reference machine: this
// sandbox on a median minute.
const refCPUNominal = 8 * time.Millisecond

type refNode struct {
	key  string
	val  int
	next *refNode
}

var refSink int

// refCPU is the in-process reference: bursts of small allocations, map
// inserts and a sort — the allocator and the cache hierarchy used the way
// the engine uses them. (Tried and dropped: a register-only spin tracks
// 10 % of the engine's slowdowns, scattered loads over a 64 MB arena track
// them worse than this and would sit in the process's peak RSS.)
func refCPU() time.Duration {
	start := time.Now()
	for round := 0; round < 2; round++ {
		index := map[string]*refNode{}
		var head *refNode
		for i := 0; i < 20_000; i++ {
			n := &refNode{key: "key-" + strconv.Itoa(i%5000), val: i, next: head}
			head = n
			index[n.key] = n
		}
		keys := make([]string, 0, len(index))
		for k := range index {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		refSink += len(keys) + head.val
	}
	return time.Since(start)
}

// refClock keeps refCPU readings taken while a workload runs, so that
// each stretch of work can be scaled by the readings around it. Sizing
// (14 runs): scaling a whole 0.4-1.3 s pass by the two readings at its
// edges leaves a spread of 6.2 % (path_addr) and 11.3 % (deep_search);
// scaling each reproduction by readings at most refEvery apart, 3.5 % and
// 7.2 %.
type refClock struct {
	at  []time.Time
	dur []float64
}

// refEvery is the longest the clock goes without a reading while work
// is between two calls into the engine.
const refEvery = 40 * time.Millisecond

func (c *refClock) read() {
	at := time.Now()
	c.at, c.dur = append(c.at, at), append(c.dur, float64(refCPU()))
}

// tick takes a reading unless the last one is fresh.
func (c *refClock) tick() {
	if len(c.at) == 0 || time.Since(c.at[len(c.at)-1]) > refEvery {
		c.read()
	}
}

// scale returns the factor for work done from `from` to `to`: nominal ÷
// the mean of the readings from the last one before the work through the
// first one after it.
func (c *refClock) scale(from, to time.Time) float64 {
	i := sort.Search(len(c.at), func(k int) bool { return c.at[k].After(from) }) - 1
	j := sort.Search(len(c.at), func(k int) bool { return !c.at[k].Before(to) })
	i, j = max(i, 0), min(j, len(c.at)-1)
	return float64(refCPUNominal) / mean(c.dur[i:j+1])
}

// The reference machine's disk, under a daemon workload: how long one
// durable replace takes at the median, on average and at p90 (this
// sandbox on a median minute: median 1.9-2.0 ms, mean 1.15x and p90 1.6x
// the median).
const (
	refDiskMedian = 2000 * time.Microsecond
	refDiskMean   = 2300 * time.Microsecond
	refDiskP90    = 3200 * time.Microsecond
)

// refSample is one reading of the disk reference.
type refSample struct {
	at  time.Time
	dur time.Duration
}

// diskRef is the disk reference: a goroutine that, for as long as a
// daemon phase is measured, durably replaces a 4 KB file every few
// milliseconds — write a temporary file, fsync, rename, fsync the
// directory, the pattern of every journal write the daemon makes — on the
// filesystem the daemon's data directory is on. It has to run alongside
// the workload: the same replace measured on an idle disk between slices
// is unrelated to the latency the daemon sees under its own load.
type diskRef struct {
	stop    chan struct{}
	done    chan struct{}
	samples []refSample
	err     error
}

func startDiskRef(dir string) *diskRef {
	r := &diskRef{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		target := filepath.Join(dir, "ref.disk")
		block := make([]byte, 4096)
		for {
			select {
			case <-r.stop:
				return
			default:
			}
			start := time.Now()
			if r.err = replaceDurably(dir, target, block); r.err != nil {
				return
			}
			r.samples = append(r.samples, refSample{at: start, dur: time.Since(start)})
			time.Sleep(5 * time.Millisecond)
		}
	}()
	return r
}

// finish stops the reference and returns its readings.
func (r *diskRef) finish() ([]refSample, error) {
	close(r.stop)
	<-r.done
	return r.samples, r.err
}

// underDiskRef runs f alongside the disk reference, so that ops priced
// outside a timed phase meet the same disk load as those inside one.
func underDiskRef(dir string, f func()) error {
	ref := startDiskRef(dir)
	f()
	_, err := ref.finish()
	return err
}

func replaceDurably(dir, target string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "ref.tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), target); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// diskScale brings a daemon phase's numbers to reference speed. Each
// statistic of the ops is held against the statistic of the reference
// that moves with it (sizing: 30 runs across calm and noisy minutes,
// spread of raw → scaled): the median op against the reference's median in
// the second the op started (33 % → 7.5 % on daemon_cold, 61 % → 3.3 % on
// daemon_dedupe); throughput, which sums ops, against the reference's mean
// per second (29 % → 7.7 %, 73 % → 4.7 %); the p95 op against the
// reference's p90 over the phase (36 % → 4.7 %, 174 % → 4.6 % — one write in
// twenty of a dedupe op, and the slowest of a cold job's eight, is the
// disk's own tail). A second with under three readings uses the phase's.
type diskScale struct {
	start             time.Time
	medians, means    []float64 // factor per second since start
	median, mean, p90 float64   // factors over the whole phase
}

func newDiskScale(start, end time.Time, samples []refSample) diskScale {
	var all []float64
	buckets := make([][]float64, int(end.Sub(start)/time.Second)+1)
	for _, s := range samples {
		if b := int(s.at.Sub(start) / time.Second); b >= 0 && b < len(buckets) {
			buckets[b] = append(buckets[b], float64(s.dur))
			all = append(all, float64(s.dur))
		}
	}
	ds := diskScale{start: start, median: 1, mean: 1, p90: 1}
	if len(all) > 0 {
		ds.median = float64(refDiskMedian) / median(all)
		ds.mean = float64(refDiskMean) / mean(all)
		ds.p90 = float64(refDiskP90) / percentile(all, 90)
	}
	for _, b := range buckets {
		md, mn := ds.median, ds.mean
		if len(b) >= 3 {
			md, mn = float64(refDiskMedian)/median(b), float64(refDiskMean)/mean(b)
		}
		ds.medians, ds.means = append(ds.medians, md), append(ds.means, mn)
	}
	return ds
}

// at returns the median factor for an instant.
func (ds diskScale) at(t time.Time) float64 {
	if b := int(t.Sub(ds.start) / time.Second); b >= 0 && b < len(ds.medians) {
		return ds.medians[b]
	}
	return ds.median
}

// wall returns the phase's duration at reference speed: each second
// weighted by its mean factor.
func (ds diskScale) wall(end time.Time) float64 {
	total := 0.0
	for b, f := range ds.means {
		from := ds.start.Add(time.Duration(b) * time.Second)
		to := from.Add(time.Second)
		if to.After(end) {
			to = end
		}
		if to.After(from) {
			total += to.Sub(from).Seconds() * f
		}
	}
	return total
}
