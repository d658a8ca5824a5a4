package store

// Test helpers for the external tests.
var (
	WithSortedSection     = withSortedSection
	WithComponentSections = withComponentSections
	WithTypeSection       = withTypeSection
	WithOldCoding         = withOldCoding
	WithUnpackedDict      = withUnpackedDict
	WithOldColumns        = withOldColumns
	IdenticalGraphs       = identicalGraphs
	AsOpened              = asOpened
	SPOCheckCases         = spoCheckCases
	WithFreshSubjects     = withFreshSubjects
)
