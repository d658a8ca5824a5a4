//go:build !race

package live

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
