package lib

import "testing"

// A test is not a product caller, nor a product reader.
func TestPlanted(t *testing.T) {
	Shape{}.Unused()
	if Planted() != 1 || PlantedConst != 2 || (Tally{TestOnly: 1}).TestOnly != 1 || (Quiet{}).String() != "quiet" {
		t.Fatal("Planted")
	}
}
