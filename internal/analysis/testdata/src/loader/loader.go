// Package loader is the corpus for the loader's file-selection
// contract: exactly which files reach the analyzers.
package loader

// Marker is defined once here. excluded.go redeclares it behind a
// build tag no build satisfies, so wrongly feeding ignored files to
// the type-checker fails loudly instead of silently widening the
// analyzed set.
func Marker() int { return 1 }
