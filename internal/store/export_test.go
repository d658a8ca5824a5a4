package store

// Test helpers for the external tests.
var (
	SPOCheckCases     = spoCheckCases
	CutoffCases       = cutoffCases
	WithFreshSubjects = withFreshSubjects
)
