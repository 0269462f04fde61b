// Package transport implements SMI's transport layer: the send (CKS)
// and receive (CKR) communication kernels that move network packets
// between application endpoints and the device's network interfaces
// (paper §4.2–4.3).
//
// One CKS/CKR pair manages each network interface, avoiding any single
// centralization point. The kernels are interconnected as in the paper's
// Fig 7:
//
//	CKS_q inputs:  application send endpoints bound to q, the paired
//	               CKR_q, and every other CKS_j (j != q).
//	CKS_q outputs: network port q, the paired CKR_q (local delivery),
//	               and every other CKS_j.
//	CKR_q inputs:  network port q, the paired CKS_q, and every other
//	               CKR_j.
//	CKR_q outputs: application receive endpoints bound to q, the paired
//	               CKS_q (forwarding when this rank is an intermediate
//	               hop), and every other CKR_j.
//
// Inputs are served with the configurable polling scheme of §4.3: a
// kernel keeps reading from the same connection up to R times while data
// is available before moving on; advancing to the next connection costs
// one cycle.
//
// Two implementations live behind the Transport interface:
// SenderDriven is the paper-faithful transport above (senders push
// eagerly, flow control is the application-level credit protocol), and
// ReceiverDriven is a Homa-style ablation where receivers observe
// backlog announcements and pace senders with priority-ordered grants
// (see receiver.go).
package transport

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
)

// Kind selects a transport implementation.
type Kind uint8

const (
	// SenderDrivenKind is the paper's CKS/CKR transport: senders inject
	// eagerly and rely on buffering, backpressure, and the §3.3
	// application-level credit protocol.
	SenderDrivenKind Kind = iota
	// ReceiverDrivenKind is the Homa-style ablation: receivers grant
	// send allowances in smallest-remaining-first order, bounded by
	// their endpoint buffer space; an unscheduled first window keeps
	// short-message latency.
	ReceiverDrivenKind
)

func (k Kind) String() string {
	switch k {
	case SenderDrivenKind:
		return "sender-driven"
	case ReceiverDrivenKind:
		return "receiver-driven"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Parse maps a wire name ("sender-driven", "receiver-driven"; "" means
// sender-driven) to a transport kind — the transport analog of
// apps.ParseTransferMode.
func Parse(s string) (Kind, error) {
	switch s {
	case "", "sender-driven":
		return SenderDrivenKind, nil
	case "receiver-driven":
		return ReceiverDrivenKind, nil
	default:
		return 0, fmt.Errorf("transport: unknown transport %q (want sender-driven or receiver-driven)", s)
	}
}

// Arbiter selects the CK input-arbitration scheme.
type Arbiter uint8

const (
	// ArbiterRoundRobin is the literal round-robin poller: advancing
	// over an idle input costs one cycle. It reproduces the paper's
	// Table 4 injection numbers exactly.
	ArbiterRoundRobin Arbiter = iota
	// ArbiterSkipIdle is a priority-encoder arbiter that jumps straight
	// to the next input holding data. It reproduces the paper's Fig 9
	// bandwidth (91% of payload peak) instead — the published RTL
	// evidently behaves in between (see EXPERIMENTS.md D1).
	ArbiterSkipIdle
)

func (a Arbiter) String() string {
	switch a {
	case ArbiterRoundRobin:
		return "round-robin"
	case ArbiterSkipIdle:
		return "skip-idle"
	default:
		return fmt.Sprintf("Arbiter(%d)", uint8(a))
	}
}

// ParseArbiter maps a wire name ("round-robin", "skip-idle"; "" means
// round-robin) to an arbiter.
func ParseArbiter(s string) (Arbiter, error) {
	switch s {
	case "", "round-robin":
		return ArbiterRoundRobin, nil
	case "skip-idle":
		return ArbiterSkipIdle, nil
	default:
		return 0, fmt.Errorf("transport: unknown arbiter %q (want round-robin or skip-idle)", s)
	}
}

// Config tunes the transport layer of one device.
type Config struct {
	// R is the polling factor: consecutive reads from one input while
	// data is available. The paper's microbenchmarks use R = 8.
	R int
	// CKDepth is the depth of the FIFOs between communication kernels
	// and of the network-port FIFOs.
	CKDepth int
	// Kind selects the transport implementation (default SenderDriven).
	Kind Kind
	// Arbiter selects the CK input-arbitration scheme (default
	// ArbiterRoundRobin).
	Arbiter Arbiter

	// Unscheduled is the receiver-driven first window: packets each
	// paced flow may send before its first grant. It is what keeps
	// short messages at eager latency (default 8 packets).
	Unscheduled int
	// GrantBatch is the largest allowance one OpGrant raises a flow by
	// (default 4 packets). Smaller batches track receiver buffer space
	// more tightly; larger ones amortize grant traffic.
	GrantBatch int
	// ReqInterval is the minimum cycle gap between repeated backlog
	// announcements of one credit-blocked flow (default 64 cycles).
	ReqInterval int64
}

// DefaultConfig mirrors the paper's experimental configuration.
func DefaultConfig() Config { return Config{R: 8, CKDepth: 8} }

func (c *Config) fill() {
	if c.R <= 0 {
		c.R = 8
	}
	if c.CKDepth <= 0 {
		c.CKDepth = 8
	}
	if c.Unscheduled <= 0 {
		c.Unscheduled = 8
	}
	if c.GrantBatch <= 0 {
		c.GrantBatch = 4
	}
	if c.ReqInterval <= 0 {
		c.ReqInterval = 64
	}
}

// PortBinding wires one application endpoint (one SMI port) to the
// transport layer. Ports must be known when the device is built — "all
// ports must be known at compile time, such that, within each rank, the
// necessary hardware connections ... can be instantiated" (§2.2).
type PortBinding struct {
	Port  int
	Iface int // CKS/CKR pair the endpoint's FIFOs attach to

	// Send carries packets from the application to CKS_Iface; Recv
	// carries packets from CKR_Iface to the application. Either may be
	// nil for one-directional endpoints.
	Send *sim.Fifo[packet.Packet]
	Recv *sim.Fifo[packet.Packet]

	// Paced marks the binding's plain OpData traffic as subject to
	// receiver-driven pacing (point-to-point data ports). Collective
	// support-kernel bindings and circuit/streaming ports run their own
	// flow-control protocols and stay unpaced. Ignored by the
	// sender-driven transport.
	Paced bool
}

// Transport is the device-level transport abstraction internal/core
// builds against: constructed from a Config and the rank's
// PortBindings, it registers its communication kernels on the rank's
// engine and exposes the network-port FIFOs the links wire up, the
// failover control surface, and the stats counters. Implementations
// must keep all mutable state engine-local to the rank (state crosses
// shards only via the netOut/netIn link boundaries) and behave as a
// deterministic function of simulated time and FIFO state, so every
// scheduler produces bit-identical runs (see DESIGN.md §9).
type Transport interface {
	// Kind reports which implementation was built — the self-report the
	// loud-fallback check in the benches verifies against the request.
	Kind() Kind
	// Rank and Ifaces echo the construction geometry.
	Rank() int
	Ifaces() int
	// NetOut(q) is written by CKS_q and drained by the outgoing link on
	// interface q; NetIn(q) is filled by the incoming link and read by
	// CKR_q.
	NetOut(q int) *sim.Fifo[packet.Packet]
	NetIn(q int) *sim.Fifo[packet.Packet]
	// SetPaused freezes (or thaws) every communication kernel;
	// SetSendPaused only the send side (the failover rescue window).
	SetPaused(v bool)
	SetSendPaused(v bool)
	// Dropped counts packets discarded for unbound ports or unreachable
	// ranks; CountDropped adds externally discarded packets.
	Dropped() uint64
	CountDropped(n uint64)
	// DrainExit empties and returns, oldest first, every packet already
	// routed toward the given exit interface (failover rescue).
	DrainExit(exit int) []packet.Packet
	// Forwarded returns total packets forwarded by the CKS and CKR
	// kernels; StreamFragments the stream fragments cut through; Grants
	// the pacing grants issued (0 for sender-driven).
	Forwarded() (cks, ckr uint64)
	StreamFragments() uint64
	Grants() uint64
	// Shape returns the structural footprint for the resource model.
	Shape() Shape
}

// New builds the transport selected by cfg.Kind for one rank and
// registers its kernels with the engine. routes must cover the
// destination ranks this device will see; bindings list every
// application endpoint.
func New(e *sim.Engine, rank, ifaces int, routes *routing.Routes, bindings []PortBinding, cfg Config) (Transport, error) {
	cfg.fill()
	switch cfg.Kind {
	case SenderDrivenKind:
		return NewSenderDriven(e, rank, ifaces, routes, bindings, cfg)
	case ReceiverDrivenKind:
		return NewReceiverDriven(e, rank, ifaces, routes, bindings, cfg)
	default:
		return nil, fmt.Errorf("transport: unknown transport kind %d", cfg.Kind)
	}
}

// Shape describes the structural footprint of a device's transport
// layer, the input to the resource model (internal/resources).
type Shape struct {
	// Fifos is the number of internal FIFOs (network ports, CKS/CKR
	// pairs, inter-kernel crossbars, pacing control queues), excluding
	// application endpoints.
	Fifos int
	// CKPorts lists, for each hardware kernel of the transport, its
	// input+output port count (CKS kernels first, then CKR, then any
	// implementation-specific kernels such as the receiver-driven pacer
	// and granter).
	CKPorts []int
}
