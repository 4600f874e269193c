package queue

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
)

func TestBernoulliDropperRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewBernoulliDropper(0.3, false, rng)
	total := 50000
	for i := 0; i < total; i++ {
		if q.Enqueue(pkt(uint64(i), 100, packet.Yellow)) {
			q.Dequeue()
		}
	}
	rate := q.LossRate()
	if rate < 0.28 || rate > 0.32 {
		t.Errorf("loss rate = %.4f, want ~0.30", rate)
	}
}

func TestBernoulliDropperProtectGreen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewBernoulliDropper(1.0, true, rng)
	if !q.Enqueue(pkt(1, 100, packet.Green)) {
		t.Error("green packet dropped with ProtectGreen at p=1")
	}
	if q.Enqueue(pkt(2, 100, packet.Yellow)) {
		t.Error("yellow packet survived p=1")
	}
}
