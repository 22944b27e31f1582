package interp

// Internals the external tests (package interp_test) read.

// MaxStdinBuf is the stdin read buffer's cap.
const MaxStdinBuf = maxStdinBuf

// StdinBufSize reports the size of m's stdin read buffer, 0 before the
// machine's first read.
func StdinBufSize(m *Machine) int {
	if m.stdin.r == nil {
		return 0
	}
	return m.stdin.r.Size()
}
