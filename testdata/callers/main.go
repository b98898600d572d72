// Command fixture is the input of TestCallersCheckFindsPlantedFunction.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	area := lib.Shape{Side: 2}.Area // a method value is a use
	fmt.Println(lib.Used(), area(), lib.Shape{})
}
