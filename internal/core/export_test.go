package core

import (
	"testing"

	"repro/internal/vm"
)

// SetPostRaceHook installs f as the post-race comparison hook until t
// ends, for the external test package.
func SetPostRaceHook(t testing.TB, f func(post, alt *vm.State, same bool)) {
	postRaceHook = f
	t.Cleanup(func() { postRaceHook = nil })
}
