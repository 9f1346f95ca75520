// Command cmd is the fixture's binary.
package main

import (
	"fmt"

	"sita/internal/analysis/testdata/src/reach/lib"
)

func main() {
	lib.Selected{}.Called()
	get := lib.Valued{}.Get
	var s lib.Shape = lib.Square{Side: 2}
	lib.Outer{}.Direct()
	fmt.Println(get(), s.Area(), lib.MeanOf(lib.Const{V: 1}), lib.Total(lib.Outer{}))
	fmt.Println(lib.Name("n"), lib.Failure{}, lib.Fancy{}, lib.Probed{})
}
