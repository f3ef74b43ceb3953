package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSwmodel compiles the CLI once per test binary.
func buildSwmodel(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "swmodel")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building swmodel: %v\n%s", err, out)
	}
	return bin
}

func runSwmodel(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("swmodel %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestCheckpointResumeRoundTrip is the CLI durability contract: a run
// interrupted at step 6 and resumed to the same total step count must
// produce a final checkpoint byte-identical to an uninterrupted run's —
// -steps/-days are totals from t=0, and the final checkpoint is always
// written.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	bin := buildSwmodel(t)
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.bin")
	full := filepath.Join(dir, "full.bin")
	resumed := filepath.Join(dir, "resumed.bin")

	base := []string{"-level", "1", "-tc", "5", "-mode", "serial", "-report", "4"}

	// Interrupted run: 6 steps, checkpoint left behind.
	runSwmodel(t, bin, append(base, "-steps", "6", "-checkpoint", ck)...)
	// Uninterrupted run to 12.
	runSwmodel(t, bin, append(base, "-steps", "12", "-checkpoint", full)...)
	// Resume the interrupted run to the same total.
	out := runSwmodel(t, bin, append(base, "-steps", "12", "-resume", ck, "-checkpoint", resumed)...)
	if !strings.Contains(out, "resumed from "+ck+" at step 6") {
		t.Fatalf("resume banner missing:\n%s", out)
	}

	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed checkpoint differs from uninterrupted run (%d vs %d bytes)", len(b), len(a))
	}
}

// TestCheckpointCadence: -checkpoint-every writes periodic checkpoints (the
// file exists mid-run semantics are covered by the serve tests; here we
// check the flag plumbs through and the final file loads).
func TestCheckpointCadence(t *testing.T) {
	bin := buildSwmodel(t)
	ck := filepath.Join(t.TempDir(), "ck.bin")
	out := runSwmodel(t, bin, "-level", "1", "-tc", "2", "-mode", "serial",
		"-steps", "5", "-report", "2", "-checkpoint", ck, "-checkpoint-every", "2")
	if !strings.Contains(out, "wrote checkpoint "+ck+" (step 5)") {
		t.Fatalf("final checkpoint banner missing:\n%s", out)
	}
	if fi, err := os.Stat(ck); err != nil || fi.Size() == 0 {
		t.Fatalf("checkpoint file missing or empty: %v", err)
	}
}

// TestModeFlag: -mode takes the registry's wire names, prints the same name
// back, and an unknown name fails naming every valid mode.
func TestModeFlag(t *testing.T) {
	bin := buildSwmodel(t)
	out := runSwmodel(t, bin, "-level", "1", "-steps", "1", "-mode", "pattern")
	if !strings.Contains(out, "mode=pattern ") {
		t.Errorf("-mode pattern output lacks mode=pattern:\n%s", out)
	}

	bad, err := exec.Command(bin, "-level", "1", "-steps", "1", "-mode", "gpu").CombinedOutput()
	if err == nil {
		t.Fatalf("-mode gpu exited 0:\n%s", bad)
	}
	words := map[string]bool{}
	for _, w := range strings.FieldsFunc(string(bad), func(r rune) bool { return r < 'a' || r > 'z' }) {
		words[w] = true
	}
	for _, name := range []string{"serial", "threaded", "kernel", "pattern", "plan", "taskplan"} {
		if !words[name] {
			t.Errorf("-mode gpu error does not name %q:\n%s", name, bad)
		}
	}
}
