//go:build race

package sw

// Race-detector builds swap the unchecked raw-pointer views of unchecked.go
// for plain slice accesses: bounds-checked and race-instrumented, so -race
// runs exercise the exact compiled schedules with full instrumentation. The
// bounds-check-elimination gate (bce_test.go) builds without -race and so
// always measures the unchecked variant.

type fv[T float] struct{ s []T }

func view[T float](s []T) fv[T] { return fv[T]{s} }

func (v fv[T]) at(i int) T     { return v.s[i] }
func (v fv[T]) set(i int, x T) { v.s[i] = x }

type i32v struct{ s []int32 }

func vi32(s []int32) i32v { return i32v{s} }

func (v i32v) at(i int) int32 { return v.s[i] }
