// Package lib plants functions, fields and declarations nothing but a test
// uses, next to one of each kind of use.
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

// Quiet implements fmt.Stringer, but nothing outside its own method names
// it, so its method is unused too.
type Quiet struct{}

// String has no caller.
func (Quiet) String() string { return "quiet" }

// Limit is read by main; PlantedConst only by a test.
const (
	Limit        = 10
	PlantedConst = 2
)

// Tally holds one field of each kind the declaration check tells apart.
type Tally struct {
	Read       int   // read by main
	Written    []int // assigned, appended to and incremented, never read
	TestOnly   int   // read only by a test
	Positional int   // set by a positional literal, never read
	Keyed      Key   // a map key
	Tagged     int   `json:"tagged"` // serialized by encoding/json
}

// Key is a map key: every lookup reads its fields.
type Key struct{ Name string }
