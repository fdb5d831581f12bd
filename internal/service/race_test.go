//go:build race

package service

func init() { raceEnabled = true }
