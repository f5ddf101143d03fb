package zair_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/compiler"
	"zac/internal/core"
	"zac/internal/qasm"
	"zac/internal/resynth"
	"zac/internal/zair"
)

// The reference encoder is the original splice implementation: marshal each
// instruction with encoding/json, unmarshal it into a map, add the "type"
// tag and marshal the map again. Program.MarshalJSON must reproduce its
// bytes exactly for every program it can encode.

type refProgram struct{ p *zair.Program }

func (r refProgram) MarshalJSON() ([]byte, error) {
	p := r.p
	out := struct {
		Name      string            `json:"name"`
		NumQubits int               `json:"num_qubits"`
		Insts     []json.RawMessage `json:"instructions"`
	}{Name: p.Name, NumQubits: p.NumQubits}
	for i, in := range p.Instructions {
		raw, err := refInstruction(in)
		if err != nil {
			return nil, fmt.Errorf("zair: instruction %d: %w", i, err)
		}
		out.Insts = append(out.Insts, raw)
	}
	return json.Marshal(out)
}

func refInstruction(in zair.Instruction) (json.RawMessage, error) {
	var body []byte
	var err error
	switch v := in.(type) {
	case zair.Init:
		body, err = json.Marshal(v)
	case zair.OneQGate:
		body, err = json.Marshal(v)
	case zair.Rydberg:
		body, err = json.Marshal(v)
	case zair.RearrangeJob:
		body, err = json.Marshal(struct {
			AODID     int               `json:"aod_id"`
			BeginLocs [][]zair.QLoc     `json:"begin_locs"`
			EndLocs   [][]zair.QLoc     `json:"end_locs"`
			Insts     []json.RawMessage `json:"insts"`
			BeginTime float64           `json:"begin_time"`
			EndTime   float64           `json:"end_time"`
		}{
			AODID: v.AODID, BeginLocs: v.BeginLocs, EndLocs: v.EndLocs,
			Insts: refMachine(v.Insts), BeginTime: v.BeginTime, EndTime: v.EndTime,
		})
	default:
		return nil, fmt.Errorf("unknown instruction type %T", in)
	}
	if err != nil {
		return nil, err
	}
	return refSplice(body, in.Type())
}

// refMachine keeps the reference's silent drop of unencodable machine
// instructions; the comparisons below only feed it encodable programs.
func refMachine(insts []zair.MachineInst) []json.RawMessage {
	out := make([]json.RawMessage, 0, len(insts))
	for _, mi := range insts {
		body, err := json.Marshal(mi)
		if err != nil {
			continue
		}
		tagged, err := refSplice(body, mi.MachineType())
		if err != nil {
			continue
		}
		out = append(out, tagged)
	}
	return out
}

func refSplice(body []byte, typ string) (json.RawMessage, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	tag, _ := json.Marshal(typ)
	m["type"] = tag
	return json.Marshal(m)
}

// assertMatchesReference checks that p encodes to the reference's bytes
// under both json.Marshal (what the determinism golden hashes) and
// json.MarshalIndent (what zac -out and zac-serve write), and that decoding
// the output and encoding it again reproduces it.
func assertMatchesReference(t *testing.T, label string, p *zair.Program) {
	t.Helper()
	for _, indent := range []bool{false, true} {
		marshal := func(v any) ([]byte, error) {
			if indent {
				return json.MarshalIndent(v, "", " ")
			}
			return json.Marshal(v)
		}
		got, err := marshal(p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := marshal(refProgram{p})
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s (indent %v): encoding differs from the reference at byte %d\n got: %s\nwant: %s",
				label, indent, firstDiff(got, want), excerpt(got, firstDiff(got, want)), excerpt(want, firstDiff(got, want)))
		}
		if !utf8.ValidString(p.Name) {
			continue // invalid UTF-8 decodes to U+FFFD, which encodes differently
		}
		var back zair.Program
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("%s: decoding the output: %v", label, err)
		}
		again, err := marshal(&back)
		if err != nil {
			t.Fatalf("%s: re-encoding the decoded program: %v", label, err)
		}
		if !bytes.Equal(again, got) {
			t.Fatalf("%s (indent %v): decode → encode changed the bytes at byte %d", label, indent, firstDiff(again, got))
		}
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func excerpt(b []byte, at int) string {
	lo, hi := max(0, at-40), min(len(b), at+40)
	return string(b[lo:hi])
}

// Every paper circuit under every Fig. 11 setting encodes to the
// reference's bytes.
func TestMarshalMatchesReferencePaperCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the paper suite four times")
	}
	settings := []string{core.SettingVanilla, core.SettingDynPlace, core.SettingDynPlaceReuse, core.SettingSADynPlaceReuse}
	a := arch.Reference()
	for _, b := range bench.All() {
		for _, s := range settings {
			res, err := core.Compile(b.Build(), a, core.OptionsFor(s))
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, s, err)
			}
			assertMatchesReference(t, b.Name+"/"+s, res.Program)
		}
	}
}

// The programs every registry compiler produces for the difftest repro
// corpus encode to the reference's bytes.
func TestMarshalMatchesReferenceReproCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the repro corpus through the whole registry")
	}
	paths, err := filepath.Glob("../difftest/testdata/repros/*.qasm")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no repros found in ../difftest/testdata/repros")
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := qasm.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, name := range compiler.Names() {
			comp, err := compiler.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			staged, err := resynth.Preprocess(c)
			if err != nil {
				t.Fatal(err)
			}
			if splitCap := compiler.StageSplitCap(comp); splitCap > 0 {
				staged = circuit.SplitRydbergStages(staged, splitCap)
			}
			res, err := comp.Compile(context.Background(), staged, compiler.TargetArch(comp), compiler.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", filepath.Base(path), name, err)
			}
			assertMatchesReference(t, filepath.Base(path)+"/"+name, res.Program)
		}
	}
}

// specialFloats are the values where encoding/json's float formatting
// switches form or sign handling matters.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 1e-7, -1e-7, 9.99e-7, 1e-9, 1.5e-10, 1e-100,
	5e-324, 1e20, 1e21, -1e21, 1.2345e21, 1e22, 1e100, math.MaxFloat64, 123.456, 52.000000000000014,
}

// genProgram builds a random program from r. Slices are nil, empty or
// filled at random, and floats mix special and random values.
func genProgram(r *rand.Rand, name string) *zair.Program {
	fl := func() float64 {
		if r.Intn(2) == 0 {
			return specialFloats[r.Intn(len(specialFloats))]
		}
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(30)-15))
	}
	floats := func() []float64 {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return []float64{}
		}
		out := make([]float64, 1+r.Intn(4))
		for i := range out {
			out[i] = fl()
		}
		return out
	}
	ints := func() []int {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		out := make([]int, 1+r.Intn(4))
		for i := range out {
			out[i] = r.Intn(200) - 100
		}
		return out
	}
	locs := func() []zair.QLoc {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return []zair.QLoc{}
		}
		out := make([]zair.QLoc, 1+r.Intn(3))
		for i := range out {
			out[i] = zair.QLoc{Q: r.Intn(100), A: r.Intn(4) - 1, R: r.Intn(100), C: r.Intn(100)}
		}
		return out
	}
	locRows := func() [][]zair.QLoc {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return [][]zair.QLoc{}
		}
		out := make([][]zair.QLoc, 1+r.Intn(3))
		for i := range out {
			out[i] = locs()
		}
		return out
	}
	p := &zair.Program{Name: name, NumQubits: r.Intn(100)}
	switch n := r.Intn(8); n {
	case 0:
		// nil instructions
	case 1:
		p.Instructions = []zair.Instruction{}
	default:
		for i := 0; i < n; i++ {
			var in zair.Instruction
			switch r.Intn(4) {
			case 0:
				in = zair.Init{Locs: locs()}
			case 1:
				in = zair.OneQGate{Unitary: [3]float64{fl(), fl(), fl()}, Locs: locs(), BeginTime: fl(), EndTime: fl()}
			case 2:
				in = zair.Rydberg{ZoneID: r.Intn(3), BeginTime: fl(), EndTime: fl()}
			default:
				job := zair.RearrangeJob{AODID: r.Intn(3), BeginLocs: locRows(), EndLocs: locRows(), BeginTime: fl(), EndTime: fl()}
				if k := r.Intn(5); k > 0 {
					for j := 0; j < k-1; j++ {
						switch r.Intn(3) {
						case 0:
							job.Insts = append(job.Insts, zair.Activate{RowID: ints(), RowY: floats(), ColID: ints(), ColX: floats()})
						case 1:
							job.Insts = append(job.Insts, zair.Deactivate{RowID: ints(), ColID: ints()})
						default:
							job.Insts = append(job.Insts, zair.Move{RowID: ints(), RowYBegin: floats(), RowYEnd: floats(),
								ColID: ints(), ColXBegin: floats(), ColXEnd: floats()})
						}
					}
					if job.Insts == nil {
						job.Insts = []zair.MachineInst{}
					}
				}
				in = job
			}
			p.Instructions = append(p.Instructions, in)
		}
	}
	return p
}

// FuzzProgramJSON compares the encoder with the reference on generated
// programs: nil and empty slices, signed zeros, floats on both sides of the
// 'e'-form thresholds, and names that need escaping.
func FuzzProgramJSON(f *testing.F) {
	for i, name := range []string{"bv_n14", "", "<a&b>", "qübit ψ   \U0001F600", "tab\tquote\"slash\\", "\xff\xfebad", "\x00ctl\x1f"} {
		f.Add(int64(i), name)
	}
	f.Fuzz(func(t *testing.T, seed int64, name string) {
		p := genProgram(rand.New(rand.NewSource(seed)), name)
		assertMatchesReference(t, fmt.Sprintf("seed %d", seed), p)
	})
}

// The generated corpus covers every edge the fuzz target names, so a run
// without -fuzz exercises them on many programs rather than the seeds only.
func TestGeneratedProgramsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		p := genProgram(rand.New(rand.NewSource(seed)), []string{"x", "<&>", "é世"}[seed%3])
		assertMatchesReference(t, fmt.Sprintf("seed %d", seed), p)
	}
}

// A machine instruction that cannot be encoded fails the whole encoding
// with an error naming both indices; it is never dropped from the job.
func TestMarshalRejectsUnencodableMachineInst(t *testing.T) {
	for _, tc := range []struct {
		name string
		mi   zair.MachineInst
		want string
	}{
		{"move NaN", zair.Move{RowID: []int{0}, RowYBegin: []float64{1}, RowYEnd: []float64{math.NaN()}}, "NaN"},
		{"activate +Inf", zair.Activate{RowID: []int{0}, RowY: []float64{1}, ColID: []int{0}, ColX: []float64{math.Inf(1)}}, "+Inf"},
		{"move -Inf", zair.Move{ColID: []int{0}, ColXBegin: []float64{math.Inf(-1)}}, "-Inf"},
	} {
		p := &zair.Program{Name: "bad", NumQubits: 1, Instructions: []zair.Instruction{
			zair.Init{Locs: []zair.QLoc{{Q: 0}}},
			zair.Rydberg{BeginTime: 0, EndTime: 1},
			zair.RearrangeJob{Insts: []zair.MachineInst{zair.Activate{RowID: []int{0}, RowY: []float64{1}}, tc.mi}},
		}}
		for _, marshal := range []func(any) ([]byte, error){
			json.Marshal,
			func(v any) ([]byte, error) { return json.MarshalIndent(v, "", " ") },
		} {
			data, err := marshal(p)
			if err == nil {
				t.Fatalf("%s: encoded without error:\n%s", tc.name, data)
			}
			for _, frag := range []string{"instruction 2", "machine instruction 1", tc.want} {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("%s: error %q does not mention %q", tc.name, err, frag)
				}
			}
		}
	}
}

// Top-level floats that cannot be encoded still fail with the instruction
// index, and instruction types from outside the package are refused.
func TestMarshalRejectsUnencodableInstruction(t *testing.T) {
	p := &zair.Program{Instructions: []zair.Instruction{zair.Init{}, zair.OneQGate{Unitary: [3]float64{0, math.NaN(), 0}}}}
	if _, err := json.Marshal(p); err == nil || !strings.Contains(err.Error(), "instruction 1") {
		t.Errorf("NaN unitary: err = %v, want one naming instruction 1", err)
	}
	p = &zair.Program{Instructions: []zair.Instruction{&zair.Init{}}}
	if _, err := json.Marshal(p); err == nil || !strings.Contains(err.Error(), "unknown instruction type") {
		t.Errorf("pointer instruction: err = %v, want unknown instruction type", err)
	}
}

// BenchmarkProgramMarshalIndent encodes the largest paper program the way
// zac -out does.
func BenchmarkProgramMarshalIndent(b *testing.B) {
	var largest *zair.Program
	var size int
	for _, bm := range bench.All() {
		res, err := core.Compile(bm.Build(), arch.Reference(), core.Default())
		if err != nil {
			b.Fatal(err)
		}
		data, err := json.Marshal(res.Program)
		if err != nil {
			b.Fatal(err)
		}
		if len(data) > size {
			largest, size = res.Program, len(data)
		}
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.MarshalIndent(largest, "", " "); err != nil {
			b.Fatal(err)
		}
	}
}
