// Package lib plants one function and one method nothing calls.
package lib

// Used is called from main.
func Used() int { return countdown(3) }

// countdown calls itself, which does not count as a caller; Used does.
func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// Planted has no caller outside a test.
func Planted() int { return 1 }

// Shape is a receiver.
type Shape struct{ Side int }

// Area is reached through a method value.
func (s Shape) Area() int { return s.Side * s.Side }

// String is reached through fmt.Stringer, an interface it implements.
func (s Shape) String() string { return "shape" }

// Unused has no caller.
func (s Shape) Unused() {}
