//go:build race

package tdb

const raceDetector = true
