//go:build !race

package dataflows

const raceEnabled = false
