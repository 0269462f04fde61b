package smi

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/transport"
)

// stressOp is one randomly generated communication operation. Every op
// gets its own port, so arbitrary interleavings across ops are safe; the
// schedule still exercises heavy multiplexing because all ops of a rank
// run back to back over the shared transport.
type stressOp struct {
	port    int
	kind    PortKind
	tree    bool
	cred    bool
	circuit bool
	count   int
	a, b    int // src/dst for p2p, root for collectives (a)
}

// TestRandomProgramsAgainstGoldenModel generates random multi-rank
// programs mixing every channel type and verifies all delivered data
// against closed-form expected values. Each seed is fully deterministic.
func TestRandomProgramsAgainstGoldenModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42, 1337}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			stressOnce(t, seed)
		})
	}
}

func stressOnce(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))

	// Random topology.
	var topo *topology.Topology
	var err error
	switch rng.Intn(3) {
	case 0:
		topo, err = topology.Bus(2 + rng.Intn(6))
	case 1:
		topo, err = topology.Torus2D(2, 2+rng.Intn(3))
	default:
		topo, err = topology.Ring(3 + rng.Intn(5))
	}
	if err != nil {
		t.Fatal(err)
	}
	ranks := topo.Devices

	// Random operation schedule, one port per op.
	nops := 6 + rng.Intn(10)
	ops := make([]stressOp, nops)
	var ports []PortSpec
	for i := range ops {
		op := stressOp{port: i, count: 1 + rng.Intn(150)}
		switch rng.Intn(5) {
		case 0:
			op.kind = P2P
			op.a = rng.Intn(ranks)
			op.b = rng.Intn(ranks)
			switch rng.Intn(3) {
			case 0:
				op.cred = op.a != op.b
			case 1:
				op.circuit = true
			}
		case 1:
			op.kind = Bcast
			op.a = rng.Intn(ranks)
			op.tree = rng.Intn(2) == 0
		case 2:
			op.kind = Reduce
			op.a = rng.Intn(ranks)
			op.tree = rng.Intn(2) == 0
		case 3:
			op.kind = Scatter
			op.a = rng.Intn(ranks)
		default:
			op.kind = Gather
			op.a = rng.Intn(ranks)
		}
		ops[i] = op
		ports = append(ports, PortSpec{
			Port: op.port, Kind: op.kind, Type: Int, ReduceOp: Add,
			Tree: op.tree, Credited: op.cred, Circuit: op.circuit,
			BufferElems: 14 + rng.Intn(100),
			CreditElems: 28 + rng.Intn(128),
		})
	}

	// Two extra ports implement the inter-phase barrier: ranks that run
	// far ahead could otherwise jam shared transport FIFOs with a later
	// phase's eager traffic (the §3.3 hazard the paper leaves to the
	// programmer).
	barrierReduce, barrierBcast := nops, nops+1
	ports = append(ports,
		PortSpec{Port: barrierReduce, Kind: Reduce, Type: Int, ReduceOp: Add},
		PortSpec{Port: barrierBcast, Kind: Bcast, Type: Int},
	)

	// Randomize the transport and routing configuration too.
	policy := routing.ShortestPath
	if rng.Intn(2) == 0 {
		policy = routing.UpDown
	}
	tc := transport.Config{R: 1 << rng.Intn(5)}
	if rng.Intn(2) == 0 {
		tc.Arbiter = transport.ArbiterSkipIdle
	}
	c, err := NewCluster(Config{
		Topology:      topo,
		Program:       ProgramSpec{Ports: ports},
		RoutingPolicy: policy,
		Transport:     tc,
	})
	if err != nil {
		t.Fatal(err)
	}

	elem := func(op stressOp, rank, i int) int32 {
		return int32(op.port*100000 + rank*1000 + i)
	}
	c.SPMD("stress", func(x *Ctx) {
		w := x.CommWorld()
		me := x.Rank()
		for _, op := range ops {
			if err := Barrier(x, barrierReduce, barrierBcast, w); err != nil {
				t.Error(err)
				return
			}
			switch op.kind {
			case P2P:
				if me == op.a {
					ch, err := x.OpenSendChannel(op.count, Int, op.b, op.port, w)
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < op.count; i++ {
						ch.PushInt(elem(op, op.a, i))
					}
				}
				if me == op.b {
					ch, err := x.OpenRecvChannel(op.count, Int, op.a, op.port, w)
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < op.count; i++ {
						if got := ch.PopInt(); got != elem(op, op.a, i) {
							t.Errorf("p2p port %d elem %d = %d", op.port, i, got)
							return
						}
					}
				}
			case Bcast:
				ch, err := x.OpenBcastChannel(op.count, Int, op.port, op.a, w)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < op.count; i++ {
					v := int32(-1)
					if ch.Root() {
						v = elem(op, op.a, i)
					}
					if got := ch.BcastInt(v); got != elem(op, op.a, i) {
						t.Errorf("bcast port %d elem %d = %d", op.port, i, got)
						return
					}
				}
			case Reduce:
				ch, err := x.OpenReduceChannel(op.count, Int, Add, op.port, op.a, w)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < op.count; i++ {
					got, ok := ch.ReduceInt(elem(op, me, i))
					if ok {
						var want int32
						for r := 0; r < ranks; r++ {
							want += elem(op, r, i)
						}
						if got != want {
							t.Errorf("reduce port %d elem %d = %d, want %d", op.port, i, got, want)
							return
						}
					}
				}
			case Scatter:
				ch, err := x.OpenScatterChannel(op.count, Int, op.port, op.a, w)
				if err != nil {
					t.Error(err)
					return
				}
				if ch.Root() {
					for i := 0; i < op.count*ranks; i++ {
						ch.Push(uint64(uint32(elem(op, i/op.count, i%op.count))))
					}
				}
				for i := 0; i < op.count; i++ {
					want := uint64(uint32(elem(op, me, i)))
					if got := ch.Pop(); got != want {
						t.Errorf("scatter port %d elem %d = %d, want %d", op.port, i, got, want)
						return
					}
				}
			case Gather:
				ch, err := x.OpenGatherChannel(op.count, Int, op.port, op.a, w)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < op.count; i++ {
					ch.Push(uint64(uint32(elem(op, me, i))))
				}
				if ch.Root() {
					for i := 0; i < op.count*ranks; i++ {
						want := uint64(uint32(elem(op, i/op.count, i%op.count)))
						if got := ch.Pop(); got != want {
							t.Errorf("gather port %d elem %d = %d, want %d", op.port, i, got, want)
							return
						}
					}
				}
			}
		}
	})
	st, err := c.Run()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if st.PacketsDropped != 0 {
		t.Fatalf("seed %d dropped %d packets", seed, st.PacketsDropped)
	}
}
