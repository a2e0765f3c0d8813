// Package mq is a miniature Kafka-like log broker ecosystem built on the
// simulated cluster substrate: brokers with partitioned, offset-addressed
// topic logs; producers and offset-committing consumers; a streams
// processor with an emit-on-change table; a connect worker with a herder
// thread; and a cross-cluster mirror replicator with offset syncs and
// consumer checkpoints.
//
// The package contains the bug patterns of the three Kafka failures in the
// paper's dataset (Table 5): KA-12508 (f18), KA-9374 (f19) and
// KA-10048 (f20).
package mq

import (
	"fmt"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/simnet"
	"anduril/internal/textrec"
)

// record is one message in a topic log.
type record struct {
	Offset int64
	Key    string
	Value  string
	Seq    int64 // producer sequence number, used by gap detectors
}

// Broker hosts topic logs and consumer-group offsets.
type Broker struct {
	env  *cluster.Env
	name string

	topics  map[string][]record
	offsets map[string]int64 // group|topic -> committed offset
}

// NewBroker creates and registers a broker node.
func NewBroker(env *cluster.Env, name string) *Broker {
	b := &Broker{env: env, name: name, topics: make(map[string][]record), offsets: make(map[string]int64)}
	net := env.Net
	net.Handle(name, "mq.produce", name+"-request", b.onProduce)
	net.Handle(name, "mq.fetch", name+"-request", b.onFetch)
	net.Handle(name, "mq.commit", name+"-request", b.onCommit)
	net.Handle(name, "mq.fetch-committed", name+"-request", b.onFetchCommitted)
	env.Sim.Go(name+"-main", func() {
		env.Log.Infof("Broker %s started", name)
	})
	return b
}

type produceReq struct {
	Topic string
	Rec   record
}

// segmentSize is how many records one on-disk segment holds before the
// broker rolls to a fresh one.
const segmentSize = 20

func (b *Broker) onProduce(m simnet.Message, respond func(interface{}, error)) {
	req, ok := m.Payload.(produceReq)
	if !ok {
		respond(nil, fmt.Errorf("mq: malformed produce"))
		return
	}
	rec := req.Rec
	rec.Offset = int64(len(b.topics[req.Topic]))
	segment := rec.Offset / segmentSize * segmentSize
	path := textrec.Padded(b.name+"/"+req.Topic+"/", int(segment), 20) + ".segment"
	if rec.Offset%segmentSize == 0 {
		if err := b.env.Disk.Create("mq.broker.roll-segment", path); err != nil {
			b.env.Log.Errorf("Broker %s failed to roll segment for %s: %s", b.name, req.Topic, err)
			respond(nil, err)
			return
		}
		b.env.Log.Infof("Broker %s rolled %s to segment starting at offset %d", b.name, req.Topic, segment)
	}
	var line [64]byte
	if err := b.env.Disk.Append("mq.broker.append-log", path, textrec.AppendRecord(line[:0], rec.Offset, rec.Key, rec.Value)); err != nil {
		b.env.Log.Errorf("Broker %s failed to append to %s: %s", b.name, req.Topic, err)
		respond(nil, err)
		return
	}
	b.topics[req.Topic] = append(b.topics[req.Topic], rec)
	b.env.Log.Debugf("Broker %s appended %s@%d to %s", b.name, rec.Key, rec.Offset, req.Topic)
	respond(rec.Offset, nil)
}

type fetchReq struct {
	Topic  string
	Offset int64
	Max    int
}

func (b *Broker) onFetch(m simnet.Message, respond func(interface{}, error)) {
	req, ok := m.Payload.(fetchReq)
	if !ok {
		respond(nil, fmt.Errorf("mq: malformed fetch"))
		return
	}
	log := b.topics[req.Topic]
	if req.Offset >= int64(len(log)) {
		respond([]record{}, nil)
		return
	}
	end := req.Offset + int64(req.Max)
	if end > int64(len(log)) {
		end = int64(len(log))
	}
	out := make([]record, end-req.Offset)
	copy(out, log[req.Offset:end])
	respond(out, nil)
}

type commitReq struct {
	Group  string
	Topic  string
	Offset int64
}

func (b *Broker) onCommit(m simnet.Message, respond func(interface{}, error)) {
	req, ok := m.Payload.(commitReq)
	if !ok {
		respond(nil, fmt.Errorf("mq: malformed commit"))
		return
	}
	b.offsets[req.Group+"|"+req.Topic] = req.Offset
	b.env.Log.Debugf("Broker %s committed offset %d for %s on %s", b.name, req.Offset, req.Group, req.Topic)
	respond("ok", nil)
}

func (b *Broker) onFetchCommitted(m simnet.Message, respond func(interface{}, error)) {
	req, ok := m.Payload.(commitReq)
	if !ok {
		respond(nil, fmt.Errorf("mq: malformed offset fetch"))
		return
	}
	respond(b.offsets[req.Group+"|"+req.Topic], nil)
}

// Topic returns a copy of the topic log (verification helper).
func (b *Broker) Topic(name string) []record {
	return append([]record(nil), b.topics[name]...)
}

// Producer publishes sequenced records.
type Producer struct {
	env    *cluster.Env
	name   string
	broker string
	seq    int64
}

// NewProducer creates a producer against one broker.
func NewProducer(env *cluster.Env, name, broker string) *Producer {
	return &Producer{env: env, name: name, broker: broker}
}

// ProduceLoop publishes count records for key at the given interval.
func (p *Producer) ProduceLoop(topic, key string, interval des.Time, count int) {
	env := p.env
	i := 0
	var step func()
	step = func() {
		if i >= count {
			env.Log.Infof("Producer %s finished %d records to %s", p.name, count, topic)
			return
		}
		p.seq++
		rec := record{Key: key, Value: textrec.Padded("v", i, 4), Seq: p.seq}
		i++
		env.Net.Call("mq.producer.send", simnet.Message{
			From: p.name, To: p.broker, Type: "mq.produce",
			Payload: produceReq{Topic: topic, Rec: rec},
		}, 250*des.Millisecond, func(_ interface{}, err error) {
			if err != nil {
				env.Log.Warnf("Producer %s send to %s failed, retrying: %s", p.name, topic, err)
			}
			env.Sim.Schedule(p.name, interval, step)
		})
	}
	env.Sim.Go(p.name, step)
}
