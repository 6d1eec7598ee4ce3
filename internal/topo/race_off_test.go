//go:build !race

package topo

const raceEnabled = false
