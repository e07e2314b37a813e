package sim

import (
	"container/heap"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// refEngine is the reference scheduler the timing wheel must match: one
// (t, seq) binary min-heap over every pending event, built on
// container/heap so it shares no code with the engine.
type refEngine struct {
	h   refHeap
	now uint64
	seq uint64
}

type refEvent struct {
	t, seq uint64
	fn     func(now uint64)
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

func (r *refEngine) At(t uint64, fn func(now uint64)) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	heap.Push(&r.h, refEvent{t: t, seq: r.seq, fn: fn})
}

func (r *refEngine) run(watch func(now uint64) error) error {
	for r.h.Len() > 0 {
		ev := heap.Pop(&r.h).(refEvent)
		r.now = ev.t
		if err := watch(ev.t); err != nil {
			r.h = r.h[:0]
			return err
		}
		ev.fn(ev.t)
	}
	return nil
}

// scheduler is what a schedule drives: the engine under test or the
// reference.
type scheduler interface {
	At(t uint64, fn func(now uint64))
	run(watch func(now uint64) error) error
}

// dispatch is one logged event: which event ran, and when.
type dispatch struct {
	id int
	t  uint64
}

var errAbort = errors.New("abort")

// schedule is a random event program. Every event, when it runs, schedules
// children at times drawn around its own, so the program depends on the
// order it is dispatched in: two schedulers that dispatch differently stop
// agreeing at the first difference and never resynchronize. abortAt > 0
// aborts the run from the watch hook before that many dispatches complete.
type schedule struct {
	seed    int64
	roots   int
	limit   int // events scheduled in all
	abortAt int
}

// target draws an event time relative to now. It covers same-time ties
// (At(now) from a callback, and shared anchor times), the horizon's edge,
// far events such as a 2^32-cycle gap yield, and times before now, which
// clamp to now.
func target(r *rand.Rand, now uint64) uint64 {
	switch k := r.Intn(20); {
	case k < 5:
		return now
	case k < 9:
		return now + uint64(1+r.Intn(8))
	case k < 12:
		// Anchors on a 64-cycle grid, some beyond the horizon when first
		// scheduled and inside it later, so events moved from the far heap
		// tie with events scheduled straight onto the wheel.
		return (now/64 + uint64(r.Intn(8))) * 64
	case k < 14:
		return now + wheelSlots - 2 + uint64(r.Intn(5))
	case k < 16:
		return now + uint64(r.Intn(4*wheelSlots))
	case k < 17:
		return now + 1<<32 + uint64(r.Intn(3))
	default:
		return now - min(now, uint64(1+r.Intn(300)))
	}
}

// drive runs s on sch and returns the dispatch log and run's error. After
// an abort it runs sch again, which must dispatch nothing.
func (s schedule) drive(t testing.TB, sch scheduler) ([]dispatch, error) {
	r := rand.New(rand.NewSource(s.seed))
	var log []dispatch
	next := 0
	var add func(at uint64)
	add = func(at uint64) {
		id := next
		next++
		sch.At(at, func(now uint64) {
			log = append(log, dispatch{id, now})
			for n := r.Intn(4); n > 0 && next < s.limit; n-- {
				add(target(r, now))
			}
		})
	}
	for range s.roots {
		add(target(r, uint64(r.Intn(2*wheelSlots))))
	}
	watch := func(uint64) error {
		if s.abortAt > 0 && len(log) >= s.abortAt {
			return errAbort
		}
		return nil
	}
	err := sch.run(watch)
	if err != nil {
		n := len(log)
		if again := sch.run(watch); again != nil || len(log) != n {
			t.Errorf("seed %d: a second run after the abort dispatched %d events (err %v)", s.seed, len(log)-n, again)
		}
	}
	return log, err
}

// checkOrder runs s on the engine and on the reference heap and fails t
// when their dispatch logs or errors differ.
func checkOrder(t testing.TB, s schedule) {
	t.Helper()
	got, gotErr := s.drive(t, newEngine())
	want, wantErr := s.drive(t, &refEngine{})
	if gotErr != wantErr {
		t.Fatalf("%+v: engine returned %v, the reference %v", s, gotErr, wantErr)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("%+v: dispatch %d of %d differs: engine ran %v, the reference %v",
			s, i, len(want), at(got, i), at(want, i))
	}
}

func firstDiff(a, b []dispatch) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(d []dispatch, i int) any {
	if i < len(d) {
		return d[i]
	}
	return "nothing"
}

// TestEngineOrder checks the timing wheel's dispatch order against a
// reference (t, seq) heap over seeded random schedules: same-time ties,
// events beyond the horizon (up to 2^32-cycle yields), At(now) from inside
// callbacks, times before now, and aborts mid-run.
func TestEngineOrder(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 50
	}
	for seed := range int64(seeds) {
		s := schedule{seed: seed, roots: 1 + int(seed%16), limit: 2000}
		if seed%4 == 3 {
			s.abortAt = 1 + int(seed*37%1500)
		}
		checkOrder(t, s)
	}
}

// TestEngineClampsAndTies pins the two rules the wheel shares with the
// heap it replaced, on a hand-written schedule: a time before now runs at
// now, and same-time events run in scheduling order, whether they were
// scheduled onto the wheel or moved there from beyond the horizon.
func TestEngineClampsAndTies(t *testing.T) {
	e := newEngine()
	var got []string
	far := uint64(wheelSlots + 10)
	e.At(far, func(uint64) { got = append(got, "far-1") })
	e.At(5, func(now uint64) {
		got = append(got, "a")
		e.At(far, func(uint64) { got = append(got, "far-2") })
		e.At(now-5, func(now uint64) { got = append(got, "clamped") })
	})
	e.At(far, func(uint64) { got = append(got, "far-3") })
	e.At(5, func(uint64) { got = append(got, "b") })
	// At 20 the horizon reaches far: the three far events move onto the
	// wheel before this one schedules "near" onto far's slot directly.
	e.At(20, func(uint64) { e.At(far, func(uint64) { got = append(got, "near") }) })
	var times []uint64
	if err := e.run(func(now uint64) error { times = append(times, now); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "clamped", "far-1", "far-3", "far-2", "near"}; !slices.Equal(got, want) {
		t.Errorf("dispatch order %v, want %v", got, want)
	}
	if want := []uint64{5, 5, 5, 20, far, far, far, far}; !slices.Equal(times, want) {
		t.Errorf("dispatch times %v, want %v", times, want)
	}
}

// FuzzEngineOrder runs the same comparison over fuzzed schedules.
func FuzzEngineOrder(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(500), uint16(0))
	f.Add(int64(7), uint8(16), uint16(3000), uint16(900))
	f.Fuzz(func(t *testing.T, seed int64, roots uint8, limit, abortAt uint16) {
		checkOrder(t, schedule{seed: seed, roots: 1 + int(roots%32), limit: int(limit % 4096), abortAt: int(abortAt)})
	})
}
