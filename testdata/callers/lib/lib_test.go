package lib

import "testing"

// A test is not a product caller.
func TestPlanted(t *testing.T) {
	Shape{}.Unused()
	if Planted() != 1 {
		t.Fatal("Planted")
	}
}
