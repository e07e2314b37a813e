package bus

import (
	"container/heap"
	"math/rand"
	"testing"
)

// linearPick is the reference for pick: the priority arbiter's original
// linear round-robin walk, visiting every processor's queue of each class
// starting just past the last winner, occupied or not.
func linearPick(b *Bus, now uint64) (*Request, Class, int, int) {
	for c := Class(0); c < NumClasses; c++ {
		for k := 1; k <= b.nproc; k++ {
			p := (b.lastWin + k) % b.nproc
			for i, r := range b.queues[c][p] {
				if r.Ready <= now {
					return r, c, p, i
				}
			}
		}
	}
	return nil, 0, 0, 0
}

// linearPickFCFS is the reference for pickFCFS: the lowest-seq ready
// request over every queue.
func linearPickFCFS(b *Bus, now uint64) (*Request, Class, int, int) {
	var best *Request
	var bc Class
	var bp, bi int
	for c := Class(0); c < NumClasses; c++ {
		for p, q := range b.queues[c] {
			for i, r := range q {
				if r.Ready <= now && (best == nil || r.seq < best.seq) {
					best, bc, bp, bi = r, c, p, i
				}
			}
		}
	}
	return best, bc, bp, bi
}

// runUntil dispatches every scheduled event due at or before t.
func (s *testSched) runUntil(t uint64) {
	for s.h.Len() > 0 && s.h[0].t <= t {
		e := heap.Pop(&s.h).(schedEvent)
		s.now = e.t
		e.fn(e.t)
	}
	s.now = max(s.now, t)
}

// TestPickMatchesLinearWalk drives buses with random Submit and grant
// sequences and, after every step, checks that the occupancy-mask
// walk picks the same winner as the linear reference at several probe
// times, and that each occupancy bit is set exactly when its queue is
// non-empty. nproc 64 exercises the mask's top bit and the rotation's
// wrap-around.
func TestPickMatchesLinearWalk(t *testing.T) {
	for _, d := range Disciplines() {
		ref := linearPick
		if d == FCFS {
			ref = linearPickFCFS
		}
		for _, nproc := range []int{1, 3, 64} {
			rng := rand.New(rand.NewSource(int64(nproc)))
			s := &testSched{}
			b, err := NewWithDiscipline(s, nproc, d)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 3000; step++ {
				if rng.Intn(2) == 0 {
					r := &Request{
						Ready:     s.now + uint64(rng.Intn(30)),
						Occupancy: uint64(1 + rng.Intn(8)),
						Class:     Class(rng.Intn(int(NumClasses))),
						Op:        OpFill,
						Proc:      rng.Intn(nproc),
					}
					if err := b.Submit(s.now, r); err != nil {
						t.Fatal(err)
					}
				} else {
					s.runUntil(s.now + uint64(rng.Intn(12)))
				}
				for c := Class(0); c < NumClasses; c++ {
					for p, q := range b.queues[c] {
						if bit := b.occupied[c]>>uint(p)&1 == 1; bit != (len(q) > 0) {
							t.Fatalf("%v nproc %d step %d: occupied[%v] bit %d = %v with %d queued",
								d, nproc, step, c, p, bit, len(q))
						}
					}
				}
				for _, dt := range []uint64{0, 5, 40} {
					now := s.now + dt
					r, c, p, i := b.pick(now)
					wr, wc, wp, wi := ref(b, now)
					if r != wr || c != wc || p != wp || i != wi {
						t.Fatalf("%v nproc %d step %d (lastWin %d) at %d: pick = (%p, %v, %d, %d), reference = (%p, %v, %d, %d)",
							d, nproc, step, b.lastWin, now, r, c, p, i, wr, wc, wp, wi)
					}
				}
			}
			if st := b.Stats(); st.TotalOps() == 0 {
				t.Fatalf("%v nproc %d: no grants; the sequence never exercised arbitration", d, nproc)
			}
		}
	}
}
