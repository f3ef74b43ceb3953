//go:build !race

package sw

import "unsafe"

// Unchecked array views for the compiled hot kernels (csr_kernels.go). The Go
// compiler cannot eliminate bounds checks on data-dependent gather subscripts
// (u[EdgesOnCell[j]] and friends), so the compiled kernels read and write
// through these raw-pointer views instead.
//
// Soundness is established OUTSIDE the hot loops, once, by construction:
//
//   - every gather index comes from the mesh's CSR image, and
//     mesh.PackCSR validates every column against its entity count;
//   - every target array is either a solver/mesh array whose length is
//     asserted against the mesh at plan compile time (checkSolverShapes) or
//     a copy of one made by newKernelSet at the same length;
//   - loop bounds are the per-worker static ranges, partitions of [0, n).
//
// Under the race detector this file is replaced by unchecked_race.go, whose
// views are ordinary slice accesses — bounds-checked and, crucially,
// race-instrumented — so `go test -race` still watches the compiled
// schedules for real data races.

// fv is the unchecked view of a []T. Each precision gets its own shape
// instantiation, so the element size folds to a constant and at/set inline to
// single load/store instructions.
type fv[T float] struct{ p *T }

func view[T float](s []T) fv[T] { return fv[T]{unsafe.SliceData(s)} }

func (v fv[T]) at(i int) T {
	return *(*T)(unsafe.Add(unsafe.Pointer(v.p), uintptr(i)*unsafe.Sizeof(*v.p)))
}

func (v fv[T]) set(i int, x T) {
	*(*T)(unsafe.Add(unsafe.Pointer(v.p), uintptr(i)*unsafe.Sizeof(*v.p))) = x
}

type i32v struct{ p *int32 }

func vi32(s []int32) i32v { return i32v{unsafe.SliceData(s)} }

func (v i32v) at(i int) int32 {
	return *(*int32)(unsafe.Add(unsafe.Pointer(v.p), uintptr(i)*4))
}
