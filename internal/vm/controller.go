package vm

// RoundRobin schedules threads in increasing thread-id order, switching at
// every scheduling point. It is deterministic, which makes plain runs
// reproducible without a trace.
type RoundRobin struct {
	last int
}

// NewRoundRobin returns a fresh round-robin controller.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// PickNext returns the first runnable thread with id greater than the last
// choice, wrapping around.
func (rr *RoundRobin) PickNext(st *State, runnable []int) int {
	for _, t := range runnable {
		if t > rr.last {
			rr.last = t
			return t
		}
	}
	rr.last = runnable[0]
	return runnable[0]
}

// Sticky keeps the current thread running as long as it is runnable; it
// models a non-preemptive scheduler and produces the fewest context
// switches. Useful as a replay fallback.
type Sticky struct{}

// PickNext prefers the current thread.
func (Sticky) PickNext(st *State, runnable []int) int {
	for _, t := range runnable {
		if t == st.Cur {
			return t
		}
	}
	return runnable[0]
}

// Random picks uniformly at random with a deterministic xorshift64 stream;
// the multi-schedule phase (§3.4) runs alternates under different seeds so
// "practically every alternate execution [has] a schedule that differs
// from all others".
type Random struct {
	s uint64
}

// NewRandom returns a random controller with the given non-zero seed.
func NewRandom(seed uint64) *Random {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Random{s: seed}
}

func (r *Random) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// PickNext picks a uniformly random runnable thread.
func (r *Random) PickNext(st *State, runnable []int) int {
	return runnable[int(r.next()%uint64(len(runnable)))]
}

// CloneableController is a controller whose scheduling position can be
// duplicated when an execution state forks during multi-path analysis.
type CloneableController interface {
	Controller
	CloneCtl() Controller
}

// CloneCtl returns a copy continuing from the same rotation position.
func (rr *RoundRobin) CloneCtl() Controller { return &RoundRobin{last: rr.last} }

// CloneCtl returns a copy (Sticky is stateless).
func (s Sticky) CloneCtl() Controller { return Sticky{} }

// CloneCtl returns a copy continuing the same random stream.
func (r *Random) CloneCtl() Controller { return &Random{s: r.s} }
