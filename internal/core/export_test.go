package core

// SetChainBlockPlanes makes stressPhase walk its regions in blocks of n
// i-planes instead of the size derived from chainBlockPoints (n larger than
// a region: the region is one block) and returns the function that restores
// the derived size. Not for parallel tests.
func SetChainBlockPlanes(n int) (restore func()) {
	was := chainBlockPlanes
	chainBlockPlanes = n
	return func() { chainBlockPlanes = was }
}
