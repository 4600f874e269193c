package cc

import (
	"time"

	"repro/internal/units"
)

// DefaultMinLoss bounds the router loss estimate from below: with β = 0.5
// and p = −2, a source at most doubles its rate per control interval.
const DefaultMinLoss = -2.0

// RouterLoss is the router side of the feedback loop, paper eq. (11): the
// PELS arrival rate R = S/elapsed over a measurement window that saw S
// bytes, and the loss p = (R−C)/R against capacity c, clamped from below
// at minLoss. Negative p is the spare-capacity signal that lets MKC claim
// bandwidth; an idle window (R = 0) reports minLoss.
func RouterLoss(bytes int64, elapsed time.Duration, c units.BitRate, minLoss float64) (units.BitRate, float64) {
	rate := units.RateFromBytes(bytes, elapsed)
	loss := minLoss
	if rate > 0 {
		loss = (float64(rate) - float64(c)) / float64(rate)
		if loss < minLoss {
			loss = minLoss
		}
	}
	return rate, loss
}
