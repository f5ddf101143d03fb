// Command app is the module's only entry point.
package main

import (
	"fmt"

	"example.com/mod/lib"
)

func main() {
	s := &lib.State{}
	fmt.Println(lib.Used(), lib.Anneal[int](s), lib.T{}, lib.Table["x"]())
}
