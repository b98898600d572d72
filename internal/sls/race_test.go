//go:build race

package sls

func init() { raceDetector = true }
