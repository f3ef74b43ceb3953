package sw

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestHotKernelsBoundsCheckFree is the asm-inspection regression gate for
// the compiled hot loops: it recompiles this package with the compiler's
// bounds-check diagnostic pass (-d=ssa/check_bce) and fails if any
// IsInBounds/IsSliceInBounds check — a panicIndex call site in the generated
// code — is attributed to csr_kernels.go, the one file of compiled kernel
// closures (both precisions are instantiated from it). The build
// cache keys on file content, so a cached compile would print nothing; a
// nonce comment is appended through a -overlay file to force exactly this
// package to recompile every run.
//
// scripts/ci.sh runs this test by name as its bounds-check gate.
func TestHotKernelsBoundsCheckFree(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the package; skipped with -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	hot := filepath.Join(root, "internal", "sw", "csr_kernels.go")
	src, err := os.ReadFile(hot)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	replaced := filepath.Join(tmp, "csr_kernels.go")
	nonce := fmt.Sprintf("\n// bce-gate nonce %d\n", time.Now().UnixNano())
	if err := os.WriteFile(replaced, append(src, nonce...), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(tmp, "overlay.json")
	ov, err := json.Marshal(map[string]map[string]string{"Replace": {hot: replaced}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, ov, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "build",
		"-overlay", overlay,
		"-gcflags=repro/internal/sw=-d=ssa/check_bce/debug=1",
		"./internal/sw")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build with check_bce failed: %v\n%s", err, out)
	}
	diag := string(out)

	// Negative control: the diagnostic pass must actually have fired — the
	// range kernels in kernels.go legitimately keep bounds checks.
	if !strings.Contains(diag, "Found IsInBounds") && !strings.Contains(diag, "Found IsSliceInBounds") {
		t.Fatalf("no bounds-check diagnostics in the build output at all; the gate is not measuring anything:\n%s", diag)
	}

	re := regexp.MustCompile(`(?m)^.*csr_kernels\.go:\d+:\d+: Found Is(Slice)?InBounds.*$`)
	if hits := re.FindAllString(diag, -1); len(hits) > 0 {
		t.Errorf("bounds checks survive in the compiled hot kernels (%d):\n%s",
			len(hits), strings.Join(hits, "\n"))
	}
}
