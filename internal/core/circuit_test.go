package smi

import (
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestCircuitChannelDeliversIntact(t *testing.T) {
	const n = 555 // deliberately not a multiple of any raw packing factor
	for _, dt := range []Datatype{Char, Short, Int, Float, Double} {
		dt := dt
		t.Run(dt.String(), func(t *testing.T) {
			c := busCluster(t, 4, PortSpec{Port: 0, Type: dt, Circuit: true, BufferElems: 256})
			mask := uint64(1)<<(8*dt.Size()) - 1
			if dt.Size() == 8 {
				mask = ^uint64(0)
			}
			c.OnRank(0, "s", func(x *Ctx) {
				ch, err := x.OpenSendChannel(n, dt, 3, 0, x.CommWorld())
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					ch.Push(uint64(i) * 2654435761)
				}
			})
			c.OnRank(3, "r", func(x *Ctx) {
				ch, err := x.OpenRecvChannel(n, dt, 0, 0, x.CommWorld())
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					if got := ch.Pop(); got != (uint64(i)*2654435761)&mask {
						t.Errorf("element %d corrupted: %x", i, got)
						return
					}
				}
			})
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCircuitBeatsPacketBandwidth(t *testing.T) {
	// The point of circuit switching: headerless payload packets use the
	// full 32-byte wire word, so a saturated link carries 32 bytes of
	// payload per cycle instead of 28.
	run := func(circuit bool) int64 {
		const n = 56000
		topo, _ := topology.Bus(2)
		c, err := NewCluster(Config{
			Topology: topo,
			Program: ProgramSpec{Ports: []PortSpec{
				{Port: 0, Type: Int, Circuit: circuit, VecWidth: 8, BufferElems: 4096},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.OnRank(0, "s", func(x *Ctx) {
			ch, _ := x.OpenSendChannel(n, Int, 1, 0, x.CommWorld())
			for i := 0; i < n; i++ {
				ch.PushInt(int32(i))
			}
		})
		c.OnRank(1, "r", func(x *Ctx) {
			ch, _ := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
			for i := 0; i < n; i++ {
				ch.PopInt()
			}
		})
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	pkt := run(false)
	circ := run(true)
	if float64(circ) > 0.85*float64(pkt) {
		t.Fatalf("circuit (%d cycles) should clearly beat packet switching (%d)", circ, pkt)
	}
}

func TestCircuitBlocksConcurrentChannel(t *testing.T) {
	// The multiplexing cost: while a circuit holds a CKS, a message on a
	// second port bound to the same kernel waits for the whole circuit.
	run := func(circuit bool) int64 {
		const bulk = 14000
		topo, _ := topology.Bus(2)
		c, err := NewCluster(Config{
			Topology: topo,
			Program: ProgramSpec{Ports: []PortSpec{
				{Port: 0, Type: Int, Circuit: circuit, VecWidth: 8, BufferElems: 1024, Iface: 0, PinIface: true},
				{Port: 1, Type: Int, Iface: 0, PinIface: true},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.OnRank(0, "bulk", func(x *Ctx) {
			ch, _ := x.OpenSendChannel(bulk, Int, 1, 0, x.CommWorld())
			for i := 0; i < bulk; i++ {
				ch.PushInt(int32(i))
			}
		})
		var ctlDone int64
		c.OnRank(0, "ctl", func(x *Ctx) {
			x.Sleep(200) // the bulk message is already flowing
			ch, _ := x.OpenSendChannel(4, Int, 1, 1, x.CommWorld())
			for i := 0; i < 4; i++ {
				ch.PushInt(int32(i))
			}
		})
		// Independent consumers: the control consumer must not gate the
		// bulk consumer, or a circuit that outlives all buffering would
		// deadlock the run (the §4.2 hazard of circuit switching).
		c.OnRank(1, "rbulk", func(x *Ctx) {
			bc, _ := x.OpenRecvChannel(bulk, Int, 0, 0, x.CommWorld())
			for i := 0; i < bulk; i++ {
				bc.PopInt()
			}
		})
		c.OnRank(1, "rctl", func(x *Ctx) {
			ctl, _ := x.OpenRecvChannel(4, Int, 0, 1, x.CommWorld())
			for i := 0; i < 4; i++ {
				ctl.PopInt()
			}
			ctlDone = x.Now()
		})
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return ctlDone
	}
	pktCtl := run(false)
	circCtl := run(true)
	// Under packet switching the control message interleaves with the
	// bulk stream; under circuit switching it waits behind the circuit.
	if float64(circCtl) < 2*float64(pktCtl) {
		t.Fatalf("circuit should delay the concurrent channel: ctl done at %d (circuit) vs %d (packet)", circCtl, pktCtl)
	}
}

func TestCircuitValidation(t *testing.T) {
	bad := ProgramSpec{Ports: []PortSpec{{Port: 0, Kind: Bcast, Type: Int, Circuit: true}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("circuit collective accepted")
	}
	bad = ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int, Circuit: true, Credited: true}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("circuit+credited accepted")
	}
}

func TestCircuitRepeatedMessages(t *testing.T) {
	const n, rounds = 100, 5
	c := busCluster(t, 2, PortSpec{Port: 0, Type: Float, Circuit: true, BufferElems: 128})
	c.OnRank(0, "s", func(x *Ctx) {
		for r := 0; r < rounds; r++ {
			ch, err := x.OpenSendChannel(n, Float, 1, 0, x.CommWorld())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				ch.PushFloat(float32(r*n + i))
			}
		}
	})
	c.OnRank(1, "r", func(x *Ctx) {
		for r := 0; r < rounds; r++ {
			ch, err := x.OpenRecvChannel(n, Float, 0, 0, x.CommWorld())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				if got := ch.PopFloat(); got != float32(r*n+i) {
					t.Errorf("round %d element %d = %g", r, i, got)
					return
				}
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCircuitShardFaultDelivery closes a long-standing coverage gap:
// circuit channels under the shard-adaptive scheduler, with fault
// injection forcing the reliable layer to carry headerless raw words
// (whose op/count ride the frame sideband — see link.encodeWord). The full
// cross-scheduler parity matrix for circuit and streaming channels is
// TestStreamingSchedulerParity.
func TestCircuitShardFaultDelivery(t *testing.T) {
	const n = 1500
	topo, err := topology.Bus(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Topology:  topo,
		Program:   ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int, Circuit: true, BufferElems: 256}}},
		Scheduler: sim.SchedShardAdaptive,
		Shards:    4, // reliable clusters shard for real now: split tx/rx halves per engine
		Faults:    &fault.Spec{Seed: 23, DropProb: 0.003, CorruptProb: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.OnRank(0, "s", func(x *Ctx) {
		ch, err := x.OpenSendChannel(n, Int, 3, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			ch.PushInt(int32(i * 7))
		}
	})
	c.OnRank(3, "r", func(x *Ctx) {
		ch, err := x.OpenRecvChannel(n, Int, 0, 0, x.CommWorld())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if got := ch.PopInt(); got != int32(i*7) {
				t.Errorf("element %d = %d, want %d", i, got, i*7)
				return
			}
		}
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retransmits == 0 && st.CrcErrors == 0 {
		t.Fatal("fault spec injected nothing; raw words never crossed a lossy wire")
	}
	if st.Sched.Shards != 4 || st.Sched.Syncs == 0 {
		t.Fatalf("reliable cluster fell back to one shard: shards=%d syncs=%d", st.Sched.Shards, st.Sched.Syncs)
	}
}

// Property: circuit channels preserve arbitrary messages across hop
// counts and buffer sizes.
func TestCircuitIntegrityQuick(t *testing.T) {
	prop := func(countRaw uint16, bufRaw, dstRaw uint8) bool {
		count := int(countRaw%600) + 1
		buf := int(bufRaw%200) + 8
		topo, _ := topology.Bus(4)
		dst := 1 + int(dstRaw)%3
		c, err := NewCluster(Config{
			Topology: topo,
			Program:  ProgramSpec{Ports: []PortSpec{{Port: 0, Type: Int, Circuit: true, BufferElems: buf}}},
		})
		if err != nil {
			return false
		}
		c.OnRank(0, "s", func(x *Ctx) {
			ch, _ := x.OpenSendChannel(count, Int, dst, 0, x.CommWorld())
			for i := 0; i < count; i++ {
				ch.PushInt(int32(i))
			}
		})
		okAll := true
		c.OnRank(dst, "r", func(x *Ctx) {
			ch, _ := x.OpenRecvChannel(count, Int, 0, 0, x.CommWorld())
			for i := 0; i < count; i++ {
				if ch.PopInt() != int32(i) {
					okAll = false
					return
				}
			}
		})
		if _, err := c.Run(); err != nil {
			return false
		}
		return okAll
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
