// Package ref is a reference root: it is read, never linted.
package ref

import "example.com/mod/lib"

// Probe is the only caller of lib.RefOnly.
func Probe() { lib.RefOnly() }
