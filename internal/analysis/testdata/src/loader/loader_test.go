package loader

// An in-package test file (go list TestGoFiles): the loader must leave
// it out of the analyzed set.
func inPackageTestHelper() int { return Marker() }
