//go:build race

package scheduler

func init() { raceEnabled = true }
