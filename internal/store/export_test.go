package store

// Test helpers for the external tests.
var (
	WithSortedSection = withSortedSection
	IdenticalGraphs   = identicalGraphs
)
