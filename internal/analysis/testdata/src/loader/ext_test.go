package loader_test

// An external test package (go list XTestGoFiles): a different
// package, not extra files of the target — it must stay out of the
// analyzed set.
func externalHelper() int { return 0 }
