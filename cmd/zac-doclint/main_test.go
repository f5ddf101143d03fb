package main

import (
	"bytes"
	"strings"
	"testing"
)

// lint runs the command with args and returns its exit code and stdout.
func lint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUnused runs -unused over testdata/unused/mod, with
// testdata/unused/ref as a reference root, and checks each rule: every
// function its name marks as unused is reported, and nothing else is.
func TestUnused(t *testing.T) {
	code, out, _ := lint(t, "-unused", "-ref", "testdata/unused/ref", "testdata/unused/mod")
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	want := []string{
		"unused function lib.UnusedExported",   // exported
		"unused function lib.unusedUnexported", // unexported
		"unused method T.UnusedMethod",         // method
		"unused function lib.TestOnly",         // used only from a _test.go file
		"unused function lib.onlyFromUnused",   // used only by unused code
		"//zac:keep needs a reason",            // KeptNoReason
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(want) {
		t.Errorf("%d findings, want %d:\n%s", len(lines), len(want), out)
	}
	for _, w := range want {
		if !strings.Contains(out, w+"\n") {
			t.Errorf("missing finding %q in:\n%s", w, out)
		}
	}
	// Interface methods (fmt.Stringer, a generic interface, errors'
	// Unwrap), a reference root's callee, a kept seam and a use from a
	// package-level initializer all pass.
	for _, name := range []string{"String", "Cost", "Propose", "Undo", "Unwrap", "RefOnly", "lib.Kept\n", "viaTable", "Used", "helper"} {
		if strings.Contains(out, name) {
			t.Errorf("%s reported:\n%s", name, out)
		}
	}
}

// TestUnusedNeedsReference checks that without its reference root the
// function only that root calls is reported.
func TestUnusedNeedsReference(t *testing.T) {
	_, out, _ := lint(t, "-unused", "testdata/unused/mod")
	if !strings.Contains(out, "unused function lib.RefOnly") {
		t.Errorf("RefOnly not reported without -ref:\n%s", out)
	}
}

// TestMissingRootFails checks that a root or reference root that does not
// exist is an error, not an empty pass.
func TestMissingRootFails(t *testing.T) {
	for _, args := range [][]string{
		{"testdata/nonexistent"},
		{"-unused", "testdata/nonexistent"},
		{"-unused", "-ref", "testdata/nonexistent", "testdata/unused/mod"},
	} {
		code, _, stderr := lint(t, args...)
		if code != 2 || !strings.Contains(stderr, "nonexistent") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming the root", args, code, stderr)
		}
	}
}
