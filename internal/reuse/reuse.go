// Package reuse holds the slice helper the simulator's constructors use
// when they rebuild a finished run's state in place (see DESIGN.md, "Cell
// lifecycle and state recycling"). A constructor handed its previous
// incarnation keeps the backing arrays and re-zeroes them, so a recycled
// structure is indistinguishable from a freshly allocated one.
package reuse

// Zeroed returns a slice of n zero elements. It reuses s's backing array
// when its capacity holds n, and allocates a fresh one otherwise.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
