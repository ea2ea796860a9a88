package core

// SetWalkGeometry makes the step walk in slabs of planes i-planes and strips
// of cols columns (0, or more than a walk holds: the whole extent; both 0:
// the derived geometry), and returns the function that restores the derived
// geometry. Not for parallel tests.
func SetWalkGeometry(planes, cols int) (restore func()) {
	was := walkGeometry
	walkGeometry = geometry{planes: planes, cols: cols}
	return func() { walkGeometry = was }
}
