package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"dfl/internal/fl"
)

const testInstance = `ufl 2 3 t
f 0 10
f 1 4
e 0 0 1
e 0 1 2
e 0 2 9
e 1 1 1
e 1 2 2
`

func solve(t *testing.T, args ...string) string {
	t.Helper()
	var out, errBuf bytes.Buffer
	if err := run(args, strings.NewReader(testInstance), &out, &errBuf); err != nil {
		t.Fatalf("run(%v): %v (stderr: %s)", args, err, errBuf.String())
	}
	return out.String()
}

func TestRunDist(t *testing.T) {
	out := solve(t, "-algo", "dist", "-k", "4")
	for _, want := range []string{"instance:", "LP lower bound:", "dist", "rounds="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	out := solve(t, "-algo", "all", "-k", "4")
	for _, want := range []string{"dist", "greedy", "jv", "jms", "mp", "localsearch", "cheapest", "openall", "exact"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Exact cost on this instance is 18; it must appear on the exact line.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "exact") && !strings.Contains(line, "cost=18") {
			t.Fatalf("exact line wrong: %q", line)
		}
	}
}

func TestRunShowSolution(t *testing.T) {
	out := solve(t, "-algo", "greedy", "-solution")
	if !strings.Contains(out, "open:") || !strings.Contains(out, "client 0 -> facility") {
		t.Fatalf("solution dump missing:\n%s", out)
	}
}

func TestRunSoftCap(t *testing.T) {
	out := solve(t, "-k", "4", "-cap", "1")
	if !strings.Contains(out, "dist-cap1") || !strings.Contains(out, "copies=") {
		t.Fatalf("capacitated output wrong:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-algo", "nope"}, strings.NewReader(testInstance), &out, &errBuf); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if err := run([]string{"-in", "/no/such/file"}, strings.NewReader(""), &out, &errBuf); err == nil {
		t.Fatal("missing file should fail")
	}
	if err := run(nil, strings.NewReader("garbage"), &out, &errBuf); err == nil {
		t.Fatal("unparsable instance should fail")
	}
}

func TestRunSaveSolution(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/out.sol"
	var out, errBuf bytes.Buffer
	if err := run([]string{"-algo", "greedy", "-save", path}, strings.NewReader(testInstance), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sol, err := fl.ReadSolution(f)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := fl.Read(strings.NewReader(testInstance))
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Validate(inst, sol); err != nil {
		t.Fatalf("saved solution invalid: %v", err)
	}
}
