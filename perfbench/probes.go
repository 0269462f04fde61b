package main

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Layer probes time single public operations of one layer, each as the
// median of probeReps repetitions of a fixed loop. They are reported in
// the traced run only and gate nothing.
const probeReps = 5

func medianProbe(n int, body func(n int) error) (float64, error) {
	ns := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := body(n); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ns), nil
}

// probeCodec times one packet Encode plus Decode round trip.
func probeCodec() (float64, error) {
	return medianProbe(1<<20, func(n int) error {
		p := packet.Packet{Src: 3, Dst: 9, Port: 2, Op: packet.OpData, Count: 7}
		for i := 0; i < n; i++ {
			p.Payload[i%packet.PayloadSize] = byte(i)
			w := p.Encode()
			q := packet.Decode(w)
			if q.Payload != p.Payload || q.Dst != p.Dst {
				return fmt.Errorf("packet codec probe: round trip changed the packet")
			}
		}
		return nil
	})
}

// probeFifoHandoff times one element handed from a producer proc to a
// consumer proc over one FIFO on one event-scheduled engine.
func probeFifoHandoff() (float64, error) {
	return medianProbe(1<<15, func(n int) error {
		e := sim.NewEngine()
		e.SetScheduler(sim.SchedEvent)
		f := sim.NewFifo[int](e, "probe", 4)
		bad := -1
		sim.NewProc(e, "producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				f.PushProc(p, i)
			}
		})
		sim.NewProc(e, "consumer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if v := f.PopProc(p); v != i && bad < 0 {
					bad = i
				}
			}
		})
		if err := e.Run(); err != nil {
			return err
		}
		if bad >= 0 {
			return fmt.Errorf("fifo handoff probe: element %d out of order", bad)
		}
		return nil
	})
}

type idleKernel struct{}

func (idleKernel) Name() string        { return "probe" }
func (idleKernel) Tick(now int64) bool { return false }

// probeBoundary times one Boundary Put and the PopReady that receives it.
func probeBoundary() (float64, error) {
	return medianProbe(1<<20, func(n int) error {
		e := sim.NewEngine()
		k := e.AddKernel(idleKernel{})
		b := sim.NewBoundary[int](e, e, k, 2)
		for i := 0; i < n; i++ {
			now := int64(i)
			b.Put(now, i)
			if v, ok := b.PopReady(now + b.Latency()); !ok || v != i {
				return fmt.Errorf("boundary probe: entry %d not ready after the latency", i)
			}
		}
		return nil
	})
}
