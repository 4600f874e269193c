package queue

import (
	"math/rand"

	"repro/internal/packet"
)

// BernoulliDropper is an oracle discipline that drops each arriving packet
// independently with a fixed probability, matching the Bernoulli loss model
// of §3.1 exactly. Green packets are exempt when ProtectGreen is set. It
// models a lossy path where the loss process — not queue dynamics — is
// under study, such as a reverse path that destroys ACKs.
type BernoulliDropper struct {
	Counters

	P            float64
	ProtectGreen bool

	rng *rand.Rand
	q   fifo
}

var _ Discipline = (*BernoulliDropper)(nil)

// NewBernoulliDropper returns an oracle queue dropping with probability p.
func NewBernoulliDropper(p float64, protectGreen bool, rng *rand.Rand) *BernoulliDropper {
	return &BernoulliDropper{P: p, ProtectGreen: protectGreen, rng: rng}
}

// Enqueue implements Discipline.
func (b *BernoulliDropper) Enqueue(p *packet.Packet) bool {
	b.RecordArrival(p)
	if !(b.ProtectGreen && p.Color == packet.Green) && b.rng.Float64() < b.P {
		b.RecordDrop(p)
		return false
	}
	b.q.push(p)
	return true
}

// Dequeue implements Discipline.
func (b *BernoulliDropper) Dequeue() *packet.Packet {
	p := b.q.pop()
	if p != nil {
		b.Dequeued++
	}
	return p
}

// Len implements Discipline.
func (b *BernoulliDropper) Len() int { return b.q.len() }

// Bytes implements Discipline.
func (b *BernoulliDropper) Bytes() int { return b.q.bytes }
