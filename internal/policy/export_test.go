package policy

import "repro/internal/cache"

// SelectorValues returns the PSEL values of an RRIP policy's dueling
// selectors (nil for any other policy). The dispatch tests in package
// policy_test compare them because a short stream rarely moves a selector
// across its threshold, so a fast path that skipped selector training
// could otherwise leave every decision unchanged.
func SelectorValues(p cache.ReplacementPolicy) []int {
	r, ok := p.(*RRIP)
	if !ok {
		return nil
	}
	v := make([]int, len(r.sels))
	for i, s := range r.sels {
		v[i] = s.value
	}
	return v
}
