package serve

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	mpas "repro"
)

// TestModeValidationMatchesRegistry: submission (Normalize), import and
// resume accept exactly the mode/precision pairs the mpas registry accepts,
// and an unknown mode's error names every registered mode at each site.
func TestModeValidationMatchesRegistry(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueCap: 64})
	precisions := []string{"", "float64", "float32"}

	// One cheap job per precision to resume: it is never suspended, so a
	// resume that passes validation reports ErrConflict.
	resumable := map[string]string{}
	for i, p := range precisions {
		id := fmt.Sprintf("j-%08x", i)
		if _, err := s.Import(JobStatus{ID: id, Spec: JobSpec{Level: 1, Steps: 1, Precision: p}}, nil); err != nil {
			t.Fatalf("importing the %q resume target: %v", p, err)
		}
		resumable[p] = id
	}

	names := []string{"gpu"}
	for _, m := range mpas.Modes() {
		names = append(names, m.String())
	}
	n := len(precisions)
	for _, name := range names {
		for _, p := range precisions {
			m, err := mpas.ParseMode(name)
			want := err == nil && mpas.CheckPrecision(m, p) == nil

			sp := JobSpec{Level: 1, Steps: 1, Mode: name, Precision: p}
			normErr := sp.Normalize()

			n++
			_, importErr := s.Import(JobStatus{ID: fmt.Sprintf("j-%08x", n), Mode: name,
				Spec: JobSpec{Level: 1, Steps: 1, Precision: p}}, nil)

			resumeErr := s.Resume(resumable[p], name)
			if errors.Is(resumeErr, ErrConflict) {
				resumeErr = nil
			}

			for site, err := range map[string]error{"Normalize": normErr, "Import": importErr, "Resume": resumeErr} {
				if (err == nil) != want {
					t.Errorf("%s(mode %q, precision %q): err=%v, registry accepts=%v", site, name, p, err, want)
				}
				if name == "gpu" && err != nil {
					words := strings.FieldsFunc(err.Error(), func(r rune) bool { return r < 'a' || r > 'z' })
					for _, m := range mpas.Modes() {
						if !slices.Contains(words, m.String()) {
							t.Errorf("%s: unknown-mode error does not list %q: %v", site, m, err)
						}
					}
				}
			}
		}
	}
}
