package store

// Test helpers for the external tests.
var (
	WithSortedSection     = withSortedSection
	WithComponentSections = withComponentSections
	WithTypeSection       = withTypeSection
	IdenticalGraphs       = identicalGraphs
	AsOpened              = asOpened
	SPOCheckCases         = spoCheckCases
	WithFreshSubjects     = withFreshSubjects
)
