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

// SetSkewStripCols makes a block that qualifies for the skewed
// velocity→stress pass walk it in strips of n columns whatever its size (n
// larger than the block: whole i-planes) and returns the function that
// restores the derived width. Not for parallel tests.
func SetSkewStripCols(n int) (restore func()) {
	was := skewStripCols
	skewStripCols = n
	return func() { skewStripCols = was }
}
