//go:build !race

package revsketch

const raceEnabled = false
