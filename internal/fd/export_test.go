package fd

// ForEachKernelPath lets the external tests of this directory (which may
// import the engine) run under both row paths.
var ForEachKernelPath = forEachKernelPath
