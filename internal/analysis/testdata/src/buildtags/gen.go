//go:build ignore

// gen is a generator run with `go run gen.go`, never part of the package.
package main

func main() {}
