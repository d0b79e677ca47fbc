package ckpt

import (
	"testing"

	"repro/internal/vm"
)

// flatCtl is a deliberately non-cloneable controller.
type flatCtl struct{}

func (flatCtl) PickNext(st *vm.State, runnable []int) int { return runnable[0] }

// TestSymStoreResumeWithPendingForks: an exploration-mainline entry
// resumes with its pending fork queue in order and its counters, and
// every resumed fork is a private clone.
func TestSymStoreResumeWithPendingForks(t *testing.T) {
	s := NewStore(8)
	f1 := PendingFork{State: stateAt(t, 12), Ctl: vm.NewRoundRobin()}
	f2 := PendingFork{State: stateAt(t, 14), Ctl: vm.NewRoundRobin()}
	s.Add(Entry{State: stateAt(t, 10), Ctl: vm.NewRoundRobin(), Branches: 1})
	s.Add(Entry{State: stateAt(t, 30), Ctl: vm.NewRoundRobin(), Forks: []PendingFork{f1, f2}, Branches: 3})
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}

	r, steps, ok := s.Resume(40, nil)
	if !ok || steps != 30 || r.State.Steps != 30 {
		t.Fatalf("Resume(40) = %+v steps %d ok %v, want mainline at 30", r, steps, ok)
	}
	if r.Branches != 3 || r.ForksUsed != 0 {
		t.Errorf("counters = branches %d forksUsed %d, want 3/0", r.Branches, r.ForksUsed)
	}
	if len(r.Forks) != 2 || r.Forks[0].State.Steps != 12 || r.Forks[1].State.Steps != 14 {
		t.Fatalf("pending forks not restored in order: %+v", r.Forks)
	}

	// Resumed clones are private: running one resume's mainline and forks
	// must not disturb a second resume or the stored entry.
	vm.NewMachine(r.State, r.Ctl).Run(5)
	vm.NewMachine(r.Forks[0].State, r.Forks[0].Ctl).Run(5)
	r2, _, ok := s.Resume(40, nil)
	if !ok || r2.State.Steps != 30 || r2.Forks[0].State.Steps != 12 {
		t.Fatal("resumed symbolic clones share state")
	}
	// And mutating the caller's fork states after Add must not leak in.
	vm.NewMachine(f1.State, vm.NewRoundRobin()).Run(5)
	r3, _, _ := s.Resume(40, nil)
	if r3.Forks[0].State.Steps != 12 {
		t.Fatal("stored fork shares state with the caller")
	}

	if h, m := s.Hits(), s.Misses(); h != 3 || m != 0 {
		t.Errorf("hits/misses = %d/%d, want 3/0", h, m)
	}
	if _, _, ok := s.Resume(5, nil); ok {
		t.Fatal("Resume(5) found an entry although none is <= 5")
	}
	if s.Misses() != 1 {
		t.Errorf("misses = %d, want 1", s.Misses())
	}
}

// TestSymStoreUncloneableForkRefused: a snapshot whose fork queue cannot
// be replayed faithfully (uncloneable controller) must not be stored at
// all — a half-snapshot would resume with missing siblings. The same
// holds for an uncloneable mainline controller.
func TestSymStoreUncloneableForkRefused(t *testing.T) {
	s := NewStore(8)
	s.Add(Entry{
		State: stateAt(t, 10), Ctl: vm.NewRoundRobin(),
		Forks: []PendingFork{{State: stateAt(t, 8), Ctl: flatCtl{}}},
	})
	s.Add(Entry{State: stateAt(t, 20), Ctl: flatCtl{}})
	if s.Len() != 0 {
		t.Fatalf("uncloneable controller was stored: len = %d", s.Len())
	}
}
