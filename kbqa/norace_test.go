//go:build !race

package kbqa

const raceEnabled = false
