package kernels

// SetParallelMinLen sets the size rule's threshold, so tests and
// benchmarks can force the pooled path, and returns a func restoring the
// old value.
func SetParallelMinLen(n int) (restore func()) {
	old := parallelMinLen
	parallelMinLen = n
	return func() { parallelMinLen = old }
}
