package transport

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The transport-conformance suite: one table of invariants every
// Transport implementation must satisfy, executed against both kinds.
//
//   - per-channel integrity: no loss, duplication, or reordering of the
//     packets of one (src, dst, port) flow, for direct links, multi-hop
//     forwarding, bidirectional traffic, and incast;
//   - credit conservation (receiver-driven): every flow ends with
//     sent <= granted + unscheduled window, and allowances never exceed
//     announced demand by more than one grant batch;
//   - stats consistency: Kind matches the requested configuration,
//     Grants is zero iff sender-driven, drops stay zero on clean runs.

func conformanceKinds() []Kind { return []Kind{SenderDrivenKind, ReceiverDrivenKind} }

func conformanceConfig(k Kind) Config {
	cfg := DefaultConfig()
	cfg.Kind = k
	return cfg
}

func TestConformance(t *testing.T) {
	type scenario struct {
		name  string
		topo  func() *topology.Topology
		ports []int
		// flows: src, dst, port, count
		flows [][4]int
	}
	scenarios := []scenario{
		{
			name:  "direct",
			topo:  func() *topology.Topology { tp, _ := topology.Bus(2); return tp },
			ports: []int{0},
			flows: [][4]int{{0, 1, 0, 200}},
		},
		{
			name:  "multi-hop",
			topo:  func() *topology.Topology { tp, _ := topology.Bus(4); return tp },
			ports: []int{0},
			flows: [][4]int{{0, 3, 0, 120}},
		},
		{
			name:  "bidirectional",
			topo:  func() *topology.Topology { tp, _ := topology.Bus(2); return tp },
			ports: []int{0, 1},
			flows: [][4]int{{0, 1, 0, 150}, {1, 0, 1, 150}},
		},
		{
			name:  "incast-4to1",
			topo:  func() *topology.Topology { tp, _ := topology.Bus(5); return tp },
			ports: []int{0, 1, 2, 3},
			flows: [][4]int{{1, 0, 0, 90}, {2, 0, 1, 90}, {3, 0, 2, 90}, {4, 0, 3, 90}},
		},
	}
	for _, kind := range conformanceKinds() {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/%s", kind, sc.name), func(t *testing.T) {
				n := buildNet(t, sc.topo(), sc.ports, conformanceConfig(kind), 5)
				for _, fl := range sc.flows {
					n.stream(t, fl[0], fl[1], fl[2], fl[3])
				}
				if err := n.eng.Run(); err != nil {
					t.Fatal(err)
				}
				var grants uint64
				for r, d := range n.devices {
					if got := d.Kind(); got != kind {
						t.Errorf("device %d built %v, requested %v", r, got, kind)
					}
					if d.Dropped() != 0 {
						t.Errorf("device %d dropped %d packets on a clean run", r, d.Dropped())
					}
					grants += d.Grants()
				}
				if kind == SenderDrivenKind && grants != 0 {
					t.Errorf("sender-driven transport reported %d grants", grants)
				}
			})
		}
	}
}

// TestConformanceCreditConservation drives a long receiver-driven flow
// whose receiver drains slowly (forcing pacing to engage) and checks
// the sender/receiver counter invariants afterwards.
func TestConformanceCreditConservation(t *testing.T) {
	topo, _ := topology.Bus(2)
	cfg := conformanceConfig(ReceiverDrivenKind)
	n := buildNet(t, topo, []int{0}, cfg, 5)
	const count = 400
	sf := n.send[[2]int{0, 0}]
	rf := n.recv[[2]int{1, 0}]
	sim.NewProc(n.eng, "sender", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			sf.PushProc(p, dataPacket(0, 1, 0, i))
		}
	})
	sim.NewProc(n.eng, "receiver", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			pkt := rf.PopProc(p)
			if got := packet.BitsInt(pkt.Elem(0, packet.Int)); got != int32(i) {
				t.Fatalf("packet %d out of order: seq %d", i, got)
			}
			p.Sleep(6) // slow consumer: backlog forms, grants pace the flow
		}
	})
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	src := n.devices[0].(*ReceiverDriven)
	dst := n.devices[1].(*ReceiverDriven)
	if dst.Grants() == 0 {
		t.Fatal("slow-consumer flow finished without a single grant: pacing never engaged")
	}
	u := uint64(0)
	for _, pp := range src.pacer.ports {
		for dstRank, f := range pp.flows {
			if f.sent > f.granted+src.pacer.unscheduled {
				t.Errorf("flow to %d overspent: sent %d > granted %d + unscheduled %d",
					dstRank, f.sent, f.granted, src.pacer.unscheduled)
			}
			u += f.sent
		}
	}
	if u != count {
		t.Errorf("pacer accounted %d sent packets, want %d", u, count)
	}
	for key, f := range dst.granter.flows {
		if f.granted > f.need+dst.granter.batch {
			t.Errorf("flow %v overgranted: granted %d > need %d + batch %d",
				key, f.granted, f.need, dst.granter.batch)
		}
	}
}

func TestParseTransport(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", SenderDrivenKind, false},
		{"sender-driven", SenderDrivenKind, false},
		{"receiver-driven", ReceiverDrivenKind, false},
		{"homa", 0, true},
	}
	for _, tc := range cases {
		got, err := Parse(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("Parse(%q) error = %v, want error %v", tc.in, err, tc.err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("Parse(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseArbiter(t *testing.T) {
	cases := []struct {
		in   string
		want Arbiter
		err  bool
	}{
		{"", ArbiterRoundRobin, false},
		{"round-robin", ArbiterRoundRobin, false},
		{"skip-idle", ArbiterSkipIdle, false},
		{"lru", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseArbiter(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseArbiter(%q) error = %v, want error %v", tc.in, err, tc.err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseArbiter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestReceiverDrivenShortMessageLatency checks the unscheduled window:
// a message shorter than it must complete without waiting for any
// grant (same first-packet latency as the sender-driven transport).
func TestReceiverDrivenShortMessageLatency(t *testing.T) {
	measure := func(kind Kind) int64 {
		topo, _ := topology.Bus(2)
		n := buildNet(t, topo, []int{0}, conformanceConfig(kind), 10)
		sf := n.send[[2]int{0, 0}]
		rf := n.recv[[2]int{1, 0}]
		var done int64
		sim.NewProc(n.eng, "sender", func(p *sim.Proc) {
			for i := 0; i < 4; i++ { // under the default 8-packet window
				sf.PushProc(p, dataPacket(0, 1, 0, i))
			}
		})
		sim.NewProc(n.eng, "receiver", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				rf.PopProc(p)
			}
			done = p.Now()
		})
		if err := n.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	sd := measure(SenderDrivenKind)
	rd := measure(ReceiverDrivenKind)
	// The pacing gate adds one registered FIFO per hop out; allow a few
	// cycles of slack but no grant round-trip (tens of cycles).
	if rd > sd+6 {
		t.Fatalf("short message under receiver-driven took %d cycles vs %d sender-driven: unscheduled window not honored", rd, sd)
	}
	if n := rd; n == 0 {
		t.Fatal("receiver-driven run recorded no completion")
	}
}
