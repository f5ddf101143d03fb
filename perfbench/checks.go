package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"

	"zac/internal/arch"
	"zac/internal/circuit"
	"zac/internal/sim"
	"zac/internal/zair"
)

// maxSimQubits bounds the inputs whose preprocessing is checked by
// statevector simulation (2^16 amplitudes).
const maxSimQubits = 16

// expected is the checked output of one input, computed at set-up through
// the registry path and compared against every timed operation on it.
type expected struct {
	name      string
	digest    [sha256.Size]byte // of the ZAIR bytes as `zac -out` writes them
	zairBytes int
	moves     int
	jobs      int
	insts     int
	fidelity  float64
	duration  float64 // µs
}

// checkProgram verifies an emitted ZAIR program: the hardware verifier
// replays it against the architecture's trap positions, and the qubit
// movements of its rearrangement jobs must add up to the compiler's reported
// move count.
func checkProgram(p *zair.Program, a *arch.Architecture, totalMoves int) error {
	v := &zair.Verifier{Resolve: a.ResolveTrap}
	if err := v.Verify(p); err != nil {
		return fmt.Errorf("%s: %w", p.Name, err)
	}
	if got := replayMoves(p); got != totalMoves {
		return fmt.Errorf("%s: ZAIR replays %d qubit movements, result reports %d", p.Name, got, totalMoves)
	}
	return nil
}

// checkZAIRBytes decodes encoded ZAIR and checks it like checkProgram.
func checkZAIRBytes(raw []byte, a *arch.Architecture, totalMoves int) error {
	var p zair.Program
	if err := json.Unmarshal(raw, &p); err != nil {
		return fmt.Errorf("decoding ZAIR: %w", err)
	}
	return checkProgram(&p, a, totalMoves)
}

// replayMoves counts the individual qubit movements of a program's
// rearrangement jobs.
func replayMoves(p *zair.Program) int {
	n := 0
	for _, in := range p.Instructions {
		if j, ok := in.(zair.RearrangeJob); ok {
			n += j.NumMoved()
		}
	}
	return n
}

// checkPreprocess checks, for inputs small enough to simulate, that the
// preprocessed staged circuit implements the input circuit up to a global
// phase.
func checkPreprocess(in *circuit.Circuit, staged *circuit.Staged) error {
	if in.NumQubits > maxSimQubits {
		return nil
	}
	want, err := sim.Run(in)
	if err != nil {
		return fmt.Errorf("%s: simulating input: %w", in.Name, err)
	}
	got, err := sim.Run(staged.Flatten())
	if err != nil {
		return fmt.Errorf("%s: simulating preprocessed circuit: %w", in.Name, err)
	}
	if f := sim.FidelityUpToPhase(want, got); math.Abs(f-1) > 1e-7 {
		return fmt.Errorf("%s: preprocessing changed the circuit: fidelity %g", in.Name, f)
	}
	return nil
}

// compactDigest hashes JSON with insignificant whitespace removed, so ZAIR
// embedded in a re-indented response compares equal to the CLI encoding.
func compactDigest(raw []byte) ([sha256.Size]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}
