package main

import (
	"fmt"
	"time"

	"iustitia/internal/corpus"
	"iustitia/internal/packet"
)

// input is the load generator's material: one UMASS-shaped gateway trace
// (packet.DefaultTraceConfig, seeded by --seed) replayed in laps. Lap k
// reuses every payload of the base trace under fresh 5-tuples (the lap
// number is written over the constant first octets of both addresses)
// and shifted virtual times, so laps never share a flow and the engine
// sees an endless, time-ordered gateway.
type input struct {
	base    []packet.Packet
	flowOf  []int32            // base packet index -> flow index
	flows   []packet.FiveTuple // base flow tuples, by flow index
	classes []int8             // ground-truth class, by flow index
	lapSpan time.Duration      // virtual time shift between laps
}

// maxLaps bounds the lap number to the 16 bits written into the tuple.
const maxLaps = 1 << 16

func newInput(flows int, seed int64) (*input, error) {
	cfg := packet.DefaultTraceConfig()
	cfg.Flows = flows
	cfg.Seed = seed
	tr, err := packet.Generate(cfg, corpus.NewGenerator(seed))
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	in := &input{base: tr.Packets, flowOf: make([]int32, len(tr.Packets))}
	index := make(map[packet.FiveTuple]int32, len(tr.Flows))
	for i := range tr.Packets {
		t := tr.Packets[i].Tuple
		f, ok := index[t]
		if !ok {
			f = int32(len(in.flows))
			index[t] = f
			in.flows = append(in.flows, t)
			in.classes = append(in.classes, int8(tr.Flows[t].Class))
		}
		in.flowOf[i] = f
	}
	in.lapSpan = tr.Packets[len(tr.Packets)-1].Time + time.Second
	return in, nil
}

// lapTuple is base flow f's tuple in lap lap.
func (in *input) lapTuple(f, lap int) packet.FiveTuple {
	t := in.flows[f]
	t.SrcIP[0] = byte(lap)
	t.DstIP[0] = byte(lap >> 8)
	return t
}

// packet returns global packet i of the endless lap sequence.
func (in *input) packet(i int) packet.Packet {
	n := len(in.base)
	lap, j := i/n, i%n
	p := in.base[j]
	p.Tuple.SrcIP[0] = byte(lap)
	p.Tuple.DstIP[0] = byte(lap >> 8)
	p.Time += time.Duration(lap) * in.lapSpan
	return p
}
