// Package lib holds one case of each rule of zac-doclint -unused. The
// functions named Unused*, TestOnly and onlyFromUnused must be reported;
// every other function must not.
package lib

import "errors"

// Used is called from the command.
func Used() int { return helper() + len(wrapped().Error()) }

func helper() int { return 1 }

// UnusedExported has no caller.
func UnusedExported() { onlyFromUnused() }

// onlyFromUnused is called only by an unused function.
func onlyFromUnused() {}

func unusedUnexported() {}

// TestOnly is called only from a test file.
func TestOnly() {}

// RefOnly is called only from the reference root.
func RefOnly() {}

// Kept has no caller but is a deliberate seam.
//
//zac:keep a seam the tests of another package drive
func Kept() {}

// T implements fmt.Stringer.
type T struct{}

// String is called by fmt through the interface.
func (T) String() string { return "T" }

// UnusedMethod has no caller.
func (T) UnusedMethod() {}

// Annealer is a generic interface.
type Annealer[M any] interface {
	Cost() float64
	Propose() M
	Undo(M)
}

// Anneal runs one proposal through the generic interface.
func Anneal[M any](p Annealer[M]) float64 {
	p.Undo(p.Propose())
	return p.Cost()
}

// State implements Annealer[int].
type State struct{ x int }

// Cost implements Annealer.
func (s *State) Cost() float64 { return float64(s.x) }

// Propose implements Annealer.
func (s *State) Propose() int { s.x++; return 1 }

// Undo implements Annealer.
func (s *State) Undo(m int) { s.x -= m }

// wrapError is unwrapped by the errors package, which asserts the method
// inside its function bodies.
type wrapError struct{ error }

// Unwrap is called by errors.Is and errors.As.
func (w wrapError) Unwrap() error { return w.error }

func wrapped() error { return wrapError{errors.New("x")} }

// Table is used through a package-level initializer.
var Table = map[string]func() int{"x": viaTable}

func viaTable() int { return 2 }

// KeptNoReason carries a keep directive without a reason.
//
//zac:keep
func KeptNoReason() {}
