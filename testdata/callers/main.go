// Command fixture is the input of TestCallersCheckFindsPlantedFunction.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	area := lib.Shape{Side: 2}.Area // a method value is a use
	fmt.Println(lib.Used(), area(), lib.Shape{})

	t := lib.Tally{1, nil, 2, 3, lib.Key{Name: "k"}, 4} // a positional literal writes every field
	t.Written = append(t.Written, 1)
	t.Written[0]++
	t.Written = nil
	seen := map[lib.Key]int{t.Keyed: 1} // a map lookup reads every field of its key
	fmt.Println(t.Read, seen, lib.Limit)
}
