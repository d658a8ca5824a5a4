//go:build race

package live

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own account: allocation ceilings are not measured under it.
const raceEnabled = true
