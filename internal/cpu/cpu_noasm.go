//go:build !amd64 || race

package cpu

// HaveAVX2 is false on builds without the assembly rows: other
// architectures, and race builds on amd64.
func HaveAVX2() bool { return false }
