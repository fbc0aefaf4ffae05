//go:build race

package snapshot

// raceEnabled reports that the race detector instruments this build; the
// allocation ceiling is not asserted there (see TestWarmOpenBuildsNothing).
const raceEnabled = true
