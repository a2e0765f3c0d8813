package simnet

import (
	"errors"
	"testing"

	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/logging"
)

func newNet(plan *inject.Plan) (*des.Sim, *inject.Runtime, *Net) {
	sim := des.New(7)
	fi := inject.NewRuntime(plan)
	lg := logging.New(sim)
	fi.LogPos = lg.Pos
	fi.Thread = sim.Current
	net := New(sim, fi, lg, des.Millisecond, 3*des.Millisecond)
	return sim, fi, net
}

func TestSendDelivers(t *testing.T) {
	sim, _, net := newNet(nil)
	var got Message
	net.Handle("b", "ping", "b-listener", func(m Message, _ func(interface{}, error)) { got = m })
	sim.Go("a-main", func() {
		if err := net.Send("a.ping.send", Message{From: "a", To: "b", Type: "ping", Payload: 42}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	sim.Run(des.Second)
	if got.Payload != 42 || got.From != "a" {
		t.Fatalf("delivered: %+v", got)
	}
}

func TestSendInjectedFault(t *testing.T) {
	sim, _, net := newNet(inject.Exact(inject.Instance{Site: "a.ping.send", Occurrence: 1}))
	delivered := false
	var sendErr error
	net.Handle("b", "ping", "b-listener", func(Message, func(interface{}, error)) { delivered = true })
	sim.Go("a-main", func() {
		sendErr = net.Send("a.ping.send", Message{From: "a", To: "b", Type: "ping"})
	})
	sim.Run(des.Second)
	if sendErr == nil || !errors.Is(sendErr, inject.KindErr(inject.Socket)) {
		t.Fatalf("send error: %v", sendErr)
	}
	if delivered {
		t.Fatal("message delivered despite injected fault")
	}
}

func TestSendToDownNode(t *testing.T) {
	sim, _, net := newNet(nil)
	net.Handle("b", "ping", "b-listener", func(Message, func(interface{}, error)) {})
	net.SetDown("b", true)
	var sendErr error
	sim.Go("a-main", func() {
		sendErr = net.Send("a.ping.send", Message{From: "a", To: "b", Type: "ping"})
	})
	sim.Run(des.Second)
	if !errors.Is(sendErr, inject.KindErr(inject.Connection)) {
		t.Fatalf("send error: %v", sendErr)
	}
	// A restart retires the entry, so reachability skips an empty map.
	net.SetDown("b", false)
	if len(net.down) != 0 {
		t.Fatalf("restart left %d down entries", len(net.down))
	}
	sim.Go("a-main", func() {
		sendErr = net.Send("a.ping.send", Message{From: "a", To: "b", Type: "ping"})
	})
	sim.Run(2 * des.Second)
	if sendErr != nil {
		t.Fatalf("send after restart: %v", sendErr)
	}
}

func TestPartition(t *testing.T) {
	sim, _, net := newNet(nil)
	net.Handle("b", "ping", "b-listener", func(Message, func(interface{}, error)) {})
	net.Partition("a", "b", true)
	var err1 error
	sim.Go("a-main", func() { err1 = net.Send("s", Message{From: "a", To: "b", Type: "ping"}) })
	sim.Run(des.Second)
	if !errors.Is(err1, inject.KindErr(inject.Connection)) {
		t.Fatalf("partitioned send: %v", err1)
	}
	net.Partition("a", "b", false)
	var err2 error
	sim.Go("a-main", func() { err2 = net.Send("s", Message{From: "a", To: "b", Type: "ping"}) })
	sim.Run(2 * des.Second)
	if err2 != nil {
		t.Fatalf("healed send: %v", err2)
	}
}

// TestPartitionHealRetiresEntries pins the map hygiene of heal: cutting
// stores two directed entries per pair and healing deletes them, so a
// long chaos run of cut/heal cycles cannot grow the partitioned map.
func TestPartitionHealRetiresEntries(t *testing.T) {
	_, _, net := newNet(nil)
	net.Partition("a", "b", true)
	net.Partition("b", "c", true)
	if got := net.Partitions(); got != 4 {
		t.Fatalf("after two cuts: %d directed entries, want 4", got)
	}
	net.Partition("b", "a", false) // heal is order-insensitive
	if got := net.Partitions(); got != 2 {
		t.Fatalf("after one heal: %d directed entries, want 2", got)
	}
	net.Partition("b", "c", false)
	if got := net.Partitions(); got != 0 {
		t.Fatalf("after healing everything: %d directed entries, want 0", got)
	}
	// Healing an uncut pair is a no-op, not a stale false entry.
	net.Partition("x", "y", false)
	if got := net.Partitions(); got != 0 {
		t.Fatalf("healing an uncut pair left %d entries", got)
	}
}

// TestCallTimeoutWhenServerCrashesMidFlight covers the race the env-fault
// layer leans on: the request is delivered and the handler runs, but the
// server goes down before its response leaves. The caller must observe a
// timeout — not a silent drop, not the response — exactly once, at a
// deterministic virtual time.
func TestCallTimeoutWhenServerCrashesMidFlight(t *testing.T) {
	run := func() (calls int, err error, at des.Time) {
		sim, _, net := newNet(nil)
		net.Handle("srv", "add", "srv-rpc", func(m Message, respond func(interface{}, error)) {
			net.SetDown("srv", true) // crash between delivery and respond
			respond(41, nil)
		})
		sim.Go("cli-main", func() {
			net.Call("cli.add.call", Message{From: "cli", To: "srv", Type: "add"},
				100*des.Millisecond, func(_ interface{}, e error) {
					calls++
					err = e
					at = sim.Now()
				})
		})
		sim.Run(des.Second)
		return calls, err, at
	}
	calls, err, at := run()
	if calls != 1 {
		t.Fatalf("continuation ran %d times, want 1", calls)
	}
	if !errors.Is(err, inject.KindErr(inject.Timeout)) {
		t.Fatalf("err=%v, want timeout", err)
	}
	if at != 100*des.Millisecond {
		t.Fatalf("timeout fired at %v, want the 100ms deadline", at)
	}
	// Virtual time stays deterministic across identical runs.
	calls2, err2, at2 := run()
	if calls2 != calls || !errors.Is(err2, inject.KindErr(inject.Timeout)) || at2 != at {
		t.Fatalf("second run diverged: calls=%d err=%v at=%v", calls2, err2, at2)
	}
}

func TestCallRoundTrip(t *testing.T) {
	sim, _, net := newNet(nil)
	net.Handle("srv", "add", "srv-rpc", func(m Message, respond func(interface{}, error)) {
		respond(m.Payload.(int)+1, nil)
	})
	var got int
	var gotErr error
	sim.Go("cli-main", func() {
		net.Call("cli.add.call", Message{From: "cli", To: "srv", Type: "add", Payload: 41},
			des.Second, func(p interface{}, err error) {
				gotErr = err
				if err == nil {
					got = p.(int)
				}
			})
	})
	sim.Run(des.Second)
	if gotErr != nil || got != 42 {
		t.Fatalf("call: %v %v", got, gotErr)
	}
}

func TestCallTimeoutWhenServerDown(t *testing.T) {
	sim, _, net := newNet(nil)
	net.Handle("srv", "add", "srv-rpc", func(m Message, respond func(interface{}, error)) {
		respond(nil, nil)
	})
	net.SetDown("srv", false)
	calls := 0
	var gotErr error
	sim.Go("cli-main", func() {
		net.SetDown("srv", true)
		net.Call("cli.add.call", Message{From: "cli", To: "srv", Type: "add"},
			100*des.Millisecond, func(_ interface{}, err error) {
				calls++
				gotErr = err
			})
	})
	sim.Run(des.Second)
	if calls != 1 {
		t.Fatalf("continuation ran %d times", calls)
	}
	if !errors.Is(gotErr, inject.KindErr(inject.Connection)) {
		t.Fatalf("err: %v", gotErr)
	}
}

func TestCallTimeoutWhenResponseLost(t *testing.T) {
	sim, _, net := newNet(nil)
	// Handler never responds: client must time out exactly once.
	net.Handle("srv", "hang", "srv-rpc", func(Message, func(interface{}, error)) {})
	calls := 0
	var gotErr error
	sim.Go("cli-main", func() {
		net.Call("s", Message{From: "cli", To: "srv", Type: "hang"},
			50*des.Millisecond, func(_ interface{}, err error) { calls++; gotErr = err })
	})
	sim.Run(des.Second)
	if calls != 1 || !errors.Is(gotErr, inject.KindErr(inject.Timeout)) {
		t.Fatalf("calls=%d err=%v", calls, gotErr)
	}
}

func TestCallResponseBeatsTimeout(t *testing.T) {
	sim, _, net := newNet(nil)
	net.Handle("srv", "ok", "srv-rpc", func(m Message, respond func(interface{}, error)) {
		respond("fine", nil)
	})
	calls := 0
	var got interface{}
	sim.Go("cli-main", func() {
		net.Call("s", Message{From: "cli", To: "srv", Type: "ok"},
			des.Second, func(p interface{}, err error) { calls++; got = p })
	})
	sim.Run(2 * des.Second)
	if calls != 1 || got != "fine" {
		t.Fatalf("calls=%d got=%v", calls, got)
	}
}

func TestCallErrorResponse(t *testing.T) {
	sim, _, net := newNet(nil)
	boom := errors.New("boom")
	net.Handle("srv", "fail", "srv-rpc", func(m Message, respond func(interface{}, error)) {
		respond(nil, boom)
	})
	var gotErr error
	sim.Go("cli-main", func() {
		net.Call("s", Message{From: "cli", To: "srv", Type: "fail"}, des.Second,
			func(_ interface{}, err error) { gotErr = err })
	})
	sim.Run(des.Second)
	if gotErr != boom {
		t.Fatalf("err=%v", gotErr)
	}
}

func TestUnknownHandler(t *testing.T) {
	sim, _, net := newNet(nil)
	var sendErr error
	sim.Go("a", func() { sendErr = net.Send("s", Message{From: "a", To: "nowhere", Type: "x"}) })
	sim.Run(des.Second)
	if sendErr == nil {
		t.Fatal("expected error for unknown handler")
	}
}

func TestHandlerRunsOnRegisteredActor(t *testing.T) {
	sim, _, net := newNet(nil)
	var actor string
	net.Handle("b", "ping", "b-xceiver-1", func(Message, func(interface{}, error)) {
		actor = sim.Current()
	})
	sim.Go("a", func() { net.Send("s", Message{From: "a", To: "b", Type: "ping"}) })
	sim.Run(des.Second)
	if actor != "b-xceiver-1" {
		t.Fatalf("handler actor=%q", actor)
	}
}
