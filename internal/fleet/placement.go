// Package fleet models a rack of IceClave devices in virtual time: it
// places tenants onto N devices by weighted rendezvous hashing, scores
// each device's health from its fault telemetry, and fails a degraded
// device over to the healthiest one with a modeled migration latency.
// Replay runs per-device replays on the discrete-event clock with an
// epoch health evaluation; identical seeds replay identical failover
// decisions and identical post-migration Results across fresh and pooled
// stacks, and a 1-device fleet is results-identical to a bare SSD (see
// ARCHITECTURE.md, "Fleet placement and failover").
package fleet

import "math"

// fnv1a hashes a tenant name (FNV-1a 64).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer — the same mixer the fault package
// uses for its decision streams.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rendezvousScore is tenant's weighted highest-random-weight score on
// device: -w / ln(u) with u uniform in (0, 1) derived from
// (tenant, device, salt). Placement picks the eligible device with the
// highest score, which gives weighted-proportional assignment AND
// minimal disruption: removing a device only moves the tenants that
// were on it, because every other device's score is untouched.
func rendezvousScore(tenant string, device int, salt uint64, weight float64) float64 {
	if weight <= 0 {
		return math.Inf(-1)
	}
	h := mix64(fnv1a(tenant) ^ mix64(salt+0x9E3779B97F4A7C15) ^ uint64(device+1)*0xD1B54A32D192ED03)
	u := (float64(h>>11) + 0.5) * (1.0 / (1 << 53)) // uniform in (0, 1)
	return -weight / math.Log(u)
}

// Place picks tenant's device among devices 0..n-1 by weighted
// rendezvous hashing. weights may be nil (all devices weight 1);
// eligible may be nil (all devices eligible). Returns -1 when no device
// is eligible. Place is a pure function — the same arguments always
// pick the same device, on any goroutine, which is what makes placement
// decisions replayable.
func Place(tenant string, n int, salt uint64, weights []float64, eligible func(int) bool) int {
	best, bestScore := -1, math.Inf(-1)
	for d := 0; d < n; d++ {
		if eligible != nil && !eligible(d) {
			continue
		}
		w := 1.0
		if weights != nil {
			w = weights[d]
		}
		if s := rendezvousScore(tenant, d, salt, w); s > bestScore {
			best, bestScore = d, s
		}
	}
	return best
}

// Placements maps each tenant name to its device — the batch form of
// Place used to pre-compute a scenario's tenant→device assignment (for
// example, to script the death of the device a given mix actually
// lands on).
func Placements(tenants []string, n int, salt uint64, weights []float64) []int {
	out := make([]int, len(tenants))
	for i, t := range tenants {
		out[i] = Place(t, n, salt, weights, nil)
	}
	return out
}
