package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	divs := []Divergence{
		{Class: ClassVerify, Compiler: "a", CorpusPath: "x.qasm"},
		{Class: ClassVerify, Compiler: "b"},
		{Class: ClassDeterminism, Compiler: "a"},
	}
	s := Summarize(divs)
	if s.Total != 3 || s.PerClass[ClassVerify] != 2 || s.PerClass[ClassDeterminism] != 1 {
		t.Fatalf("bad summary: %+v", s)
	}
	if len(s.Corpus) != 1 || s.Corpus[0] != "x.qasm" {
		t.Fatalf("bad corpus list: %v", s.Corpus)
	}
	out := s.String()
	if !strings.Contains(out, "3 divergences") || !strings.Contains(out, "verify: 2") {
		t.Fatalf("bad rendering: %s", out)
	}
	if empty := Summarize(nil).String(); empty != "0 divergences" {
		t.Fatalf("empty rendering: %q", empty)
	}
}

func TestClassesCoverTaxonomy(t *testing.T) {
	seen := map[Class]bool{}
	for _, c := range Classes() {
		if seen[c] {
			t.Fatalf("duplicate class %s", c)
		}
		seen[c] = true
	}
	for _, c := range []Class{ClassCompile, ClassVerify, ClassAccounting,
		ClassDeterminism, ClassFidelityOrder, ClassSanity} {
		if !seen[c] {
			t.Fatalf("Classes() missing %s", c)
		}
	}
}

func TestWriteAndReadCorpus(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "corpus")
	d := Divergence{
		Class: ClassAccounting, Compiler: "stub>other", Input: "rb:n=4",
		Detail: "line one\nline two",
		QASM:   "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncz q[0],q[1];\n",
	}
	p, err := writeRepro(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(filepath.Base(p), "> ") {
		t.Errorf("unsanitized filename %q", p)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"// class: accounting", "// detail: line one", "// detail: line two", "cz q[0],q[1];"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("repro file missing %q:\n%s", want, data)
		}
	}
	// Idempotent: same divergence, same path, no duplicates.
	p2, err := writeRepro(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Errorf("re-writing the same repro changed the path: %q vs %q", p2, p)
	}
	paths, err := readCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != p {
		t.Errorf("readCorpus = %v, want [%s]", paths, p)
	}
	// A missing directory is an empty corpus.
	none, err := readCorpus(filepath.Join(dir, "absent"))
	if err != nil || none != nil {
		t.Errorf("missing dir: %v, %v", none, err)
	}
}

func TestDivergenceString(t *testing.T) {
	d := Divergence{
		Class: ClassVerify, Compiler: "zac", Input: "rb:n=4",
		Detail: "bad", Gates: 3, QASM: "qreg q[1];", CorpusPath: "c.qasm",
	}
	out := d.String()
	for _, want := range []string{"[verify]", "zac", "rb:n=4", "3-gate repro", "corpus: c.qasm", "  qreg q[1];"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestFidelityOrderViolated(t *testing.T) {
	cases := []struct {
		name       string
		less, more float64
		want       bool
	}{
		{"equal", 0.5, 0.5, false},
		{"proper order", 0.3, 0.5, false},
		{"tiny undercut within slack", 0.51, 0.5, false},
		{"deep circuits, big raw ratio, small cost gap", 1.6e-6, 1e-6, false},
		{"halved fidelity at shallow depth", 0.8, 0.4, true},
		{"deep circuits, cost gap beyond tolerance", 1e-4, 1e-6, true},
		{"zero fidelity is sanity's problem", 0.5, 0, false},
		{"above one is sanity's problem", 1.5, 0.5, false},
	}
	for _, tc := range cases {
		if got := fidelityOrderViolated(tc.less, tc.more, DefaultFidelityTol); got != tc.want {
			t.Errorf("%s: fidelityOrderViolated(%g, %g) = %v, want %v", tc.name, tc.less, tc.more, got, tc.want)
		}
	}
}
