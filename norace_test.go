//go:build !race

package crosssched

const raceEnabled = false
