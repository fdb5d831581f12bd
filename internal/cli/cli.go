// Package cli holds the flag groups the commands share. A group registers
// one concern's flags on a FlagSet, checks them once when the set is
// parsed, and hands the command the value it needs, so a flag means the
// same thing, with the same default and the same validation, on every
// command that takes it.
//
// Every command exits with the same codes: ExitUsage for a malformed
// flag or a failed check, ExitRuntime for an error while running, and
// ExitInterrupted for a checkpointed replay a signal stopped.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// Exit codes shared by every command.
const (
	ExitRuntime     = 1
	ExitUsage       = 2
	ExitInterrupted = 130
)

// FlagSet is a flag.FlagSet whose groups check their flags once, right
// after parsing.
type FlagSet struct {
	*flag.FlagSet
	checks []func() error
}

// NewFlagSet returns the flag set of the named command. A malformed flag
// or a failed check prints the error and exits ExitUsage.
func NewFlagSet(name string) *FlagSet {
	return &FlagSet{FlagSet: flag.NewFlagSet(name, flag.ExitOnError)}
}

// Check adds a validation that Parse runs after parsing, in the order
// the checks were added.
func (fs *FlagSet) Check(check func() error) { fs.checks = append(fs.checks, check) }

// Parse parses args and runs every check. Under flag.ExitOnError a failed
// check prints its error and exits ExitUsage; otherwise Parse returns it.
func (fs *FlagSet) Parse(args []string) error {
	if err := fs.FlagSet.Parse(args); err != nil {
		return err
	}
	for _, check := range fs.checks {
		if err := check(); err != nil {
			if fs.ErrorHandling() == flag.ExitOnError {
				fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
				os.Exit(ExitUsage)
			}
			return err
		}
	}
	return nil
}

// OpenInput opens the file a command reads its input from: path, or
// standard input when path is "" or "-".
func OpenInput(path string) (io.ReadCloser, error) {
	if path == "" || path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}
