// Package waivers exercises what the driver reports about the waivers
// themselves, with detrand as the rule being waived.
package waivers

import "math/rand"

// Used names the rule, gives a reason and suppresses a finding: silent.
func Used() int {
	//geckolint:ignore detrand jitter only, never replayed
	return rand.Int()
}

// NoReason still suppresses the finding, but a waiver must say why.
func NoReason() int {
	/* want `waiver gives no reason` */ //geckolint:ignore detrand
	return rand.Int()
}

// UnknownName misspells the rule, so the waiver is inert and the finding
// stands.
func UnknownName() int {
	/* want `waiver names detrnd, which is not a geckolint rule` */ //geckolint:ignore detrnd jitter only
	return rand.Int()                                               // want `global math/rand.Int draws`
}

// SuppressesNothing waives a rule that reports nothing in its statement.
func SuppressesNothing(r *rand.Rand) int {
	/* want `waiver of detrand suppresses nothing` */ //geckolint:ignore detrand seeded already
	return r.Int()
}

// NoName names no rule at all.
func NoName() int {
	/* want `waiver names no rule` */ //geckolint:ignore
	return rand.Int()                 // want `global math/rand.Int draws`
}
