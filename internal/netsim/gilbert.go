package netsim

import "math/rand"

// GilbertElliott is a two-state Markov burst-loss process, the classic
// alternative to the Bernoulli coin (LossRate) for modeling correlated
// loss: the channel alternates between a good state and a bad state with
// independent per-packet loss probabilities, and bursts arise because the
// chain lingers in the bad state (mean burst length 1/PBG packets).
//
// The process draws from the owning link's private loss stream (keyed by
// network seed and link ID), so loss sequences are deterministic for a
// given seed and that link's own packet order. Each link direction
// installs its own GilbertElliott value (SetGE): the two directions'
// chains evolve independently on disjoint streams (DESIGN.md §3).
type GilbertElliott struct {
	PGB      float64 // per-packet transition probability good → bad
	PBG      float64 // per-packet transition probability bad → good
	LossGood float64 // per-packet loss probability in the good state
	LossBad  float64 // per-packet loss probability in the bad state

	bad bool
}

// Drop advances the chain by one packet and reports whether that packet is
// lost: a loss draw in the current state, then a transition draw. Draws
// for zero probabilities are skipped; the chain's trajectory — and with it
// the RNG consumption — is still fully determined by the seed and the
// packet order.
func (g *GilbertElliott) Drop(rng *rand.Rand) bool {
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	drop := p > 0 && rng.Float64() < p
	if g.bad {
		if g.PBG > 0 && rng.Float64() < g.PBG {
			g.bad = false
		}
	} else {
		if g.PGB > 0 && rng.Float64() < g.PGB {
			g.bad = true
		}
	}
	return drop
}

// Bad reports whether the chain is currently in the bad (bursty) state.
func (g *GilbertElliott) Bad() bool { return g.bad }
