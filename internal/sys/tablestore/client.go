package tablestore

import (
	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/simnet"
	"anduril/internal/textrec"
)

// Client is a scripted table client.
type Client struct {
	c    *Cluster
	name string
}

// NewClient creates a named client.
func (c *Cluster) NewClient(name string) *Client {
	return &Client{c: c, name: name}
}

func (cl *Client) env() *cluster.Env { return cl.c.env }

// PutLoop issues single-row puts to rs at a fixed interval, count times —
// the steady write stream that keeps the WAL busy.
func (cl *Client) PutLoop(rs string, interval des.Time, count int) {
	env := cl.env()
	var region = "region-" + rs // once per loop; a declaration, which the analyzer's assignment index skips
	i := 0
	var step func()
	step = func() {
		if i >= count {
			env.Log.Infof("Client %s finished put loop of %d rows", cl.name, count)
			return
		}
		row := textrec.Padded("row-", i, 4)
		val := textrec.Padded("val-", i, 4)
		i++
		env.Net.Call("ts.client.put-rpc",
			simnet.Message{From: cl.name, To: rs, Type: "ts.batch", Payload: batchReq{
				Region: region, Mutations: []mutation{{Row: row, Value: val}},
			}},
			rpcTimeout, func(_ interface{}, err error) {
				if err != nil {
					env.Log.Warnf("Client %s put of %s failed: %s", cl.name, row, err)
				}
				env.Sim.Schedule(cl.name, interval, step)
			})
	}
	env.Sim.Go(cl.name, step)
}

// PutBatch issues one multi-mutation batch and then verifies each row by
// reading it back — the verification that surfaces HB-19876's corruption.
func (cl *Client) PutBatch(rs string, region string, muts []mutation, atomic bool, retries int, done func()) {
	env := cl.env()
	env.Net.Call("ts.client.batch-rpc",
		simnet.Message{From: cl.name, To: rs, Type: "ts.batch", Payload: batchReq{
			Region: region, Mutations: muts, Atomic: atomic,
		}},
		rpcTimeout, func(_ interface{}, err error) {
			if err != nil {
				if retries > 0 {
					env.Log.Warnf("Client %s batch for %s failed, retrying: %s", cl.name, region, err)
					env.Sim.Schedule(cl.name, 80*des.Millisecond, func() {
						cl.PutBatch(rs, region, muts, atomic, retries-1, done)
					})
					return
				}
				env.Log.Errorf("Client %s batch for %s failed permanently: %s", cl.name, region, err)
				if done != nil {
					done()
				}
				return
			}
			cl.verifyRows(rs, muts, 0, done)
		})
}

// verifyRows reads back every row of a batch and checks the values.
func (cl *Client) verifyRows(rs string, muts []mutation, idx int, done func()) {
	env := cl.env()
	if idx >= len(muts) {
		env.Log.Infof("Client %s verified %d rows on %s", cl.name, len(muts), rs)
		if done != nil {
			done()
		}
		return
	}
	want := muts[idx]
	env.Net.Call("ts.client.get-rpc",
		simnet.Message{From: cl.name, To: rs, Type: "ts.get", Payload: want.Row},
		rpcTimeout, func(payload interface{}, err error) {
			if err != nil {
				env.Log.Warnf("Client %s could not read back %s: %s", cl.name, want.Row, err)
			} else if got, _ := payload.(string); got != want.Value {
				env.Log.Errorf("Corrupt cell detected for row %s: got %q want %q", want.Row, got, want.Value)
			}
			env.Sim.Schedule(cl.name, 10*des.Millisecond, func() {
				cl.verifyRows(rs, muts, idx+1, done)
			})
		})
}
