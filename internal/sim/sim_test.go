package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueReady(t *testing.T) {
	var s Sim
	ran := false
	s.After(5, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %v, want 5", s.Now())
	}
}

func TestEventOrderingByTime(t *testing.T) {
	s := New()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestScheduleDuringRun(t *testing.T) {
	s := New()
	var got []Time
	s.At(10, func() {
		got = append(got, s.Now())
		s.After(5, func() { got = append(got, s.Now()) })
	})
	s.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got %v, want [10 15]", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nil fn")
		}
	}()
	New().At(1, nil)
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	ref := s.At(10, func() { ran = true })
	if !s.Cancel(ref) {
		t.Fatal("Cancel reported failure")
	}
	if s.Cancel(ref) {
		t.Fatal("double Cancel reported success")
	}
	s.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	if s.Cancel(EventRef{}) {
		t.Fatal("Cancel of zero ref reported success")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	s := New()
	var got []int
	refs := make([]EventRef, 5)
	for i := 0; i < 5; i++ {
		i := i
		refs[i] = s.At(Time(i+1), func() { got = append(got, i) })
	}
	s.Cancel(refs[2])
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.RunUntil(12)
	if len(got) != 2 {
		t.Fatalf("RunUntil(12) ran %v, want 2 events", got)
	}
	if s.Now() != 12 {
		t.Fatalf("Now = %v, want 12", s.Now())
	}
	s.RunUntil(MaxTime)
	if len(got) != 4 {
		t.Fatalf("after full run got %v", got)
	}
}

// TestRunUntilEndClock pins RunUntil's end-clock semantics (see the
// RunUntil doc comment): the clock lands on end only when events remain
// beyond it; otherwise it stays at the last executed event.
func TestRunUntilEndClock(t *testing.T) {
	// Events remain beyond end: clock advances to exactly end and the
	// later event stays pending.
	s := New()
	ran := 0
	s.At(5, func() { ran++ })
	s.At(30, func() { ran++ })
	s.RunUntil(12)
	if s.Now() != 12 || ran != 1 || s.Pending() != 1 {
		t.Fatalf("beyond-end: Now=%v ran=%d pending=%d, want 12/1/1", s.Now(), ran, s.Pending())
	}

	// Queue empties before end: clock stays at the last executed event,
	// not the horizon.
	s = New()
	s.At(7, func() {})
	s.RunUntil(100)
	if s.Now() != 7 {
		t.Fatalf("empty-queue: Now=%v, want 7 (clock must not jump to end)", s.Now())
	}

	// An event exactly at end still runs, and the clock is end.
	s = New()
	s.At(12, func() { ran = 100 })
	s.RunUntil(12)
	if ran != 100 || s.Now() != 12 {
		t.Fatalf("at-end: ran=%d Now=%v, want 100/12", ran, s.Now())
	}

	// Halt stops the run with the clock at the halting event.
	s = New()
	s.At(3, func() { s.Halt() })
	s.At(9, func() {})
	s.RunUntil(50)
	if s.Now() != 3 || s.Pending() != 1 {
		t.Fatalf("halt: Now=%v pending=%d, want 3/1", s.Now(), s.Pending())
	}

	// RunUntil on an empty simulator leaves the clock untouched.
	s = New()
	s.RunUntil(40)
	if s.Now() != 0 {
		t.Fatalf("no-events: Now=%v, want 0", s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := New()
	n := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func() {
			n++
			if n == 3 {
				s.Halt()
			}
		})
	}
	s.Run()
	if n != 3 {
		t.Fatalf("ran %d events after Halt, want 3", n)
	}
	s.Run() // resume
	if n != 10 {
		t.Fatalf("resume ran to %d, want 10", n)
	}
}

func TestStep(t *testing.T) {
	s := New()
	n := 0
	s.At(1, func() { n++ })
	s.At(2, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatal("first Step failed")
	}
	if !s.Step() || n != 2 {
		t.Fatal("second Step failed")
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestRunAfterCallbackPanic recovers a callback's panic in the caller and
// runs the same Sim on. The panic left fire before it could close the lazy
// pop's hole, so the heap's root is still the event that fired: the next
// RunUntil or Step must drop it, not fire it again, and deliver what is
// left in order — including what the callback scheduled before and the
// caller schedules after the panic.
func TestRunAfterCallbackPanic(t *testing.T) {
	for _, c := range []struct {
		name         string
		wheel, first bool // first: the callback schedules before it panics
		resume       func(*Sim)
	}{
		{"heap/RunUntil", false, false, func(s *Sim) { s.RunUntil(100) }},
		{"heap/RunUntil/refilled", false, true, func(s *Sim) { s.RunUntil(100) }},
		{"heap/Step", false, false, func(s *Sim) {
			for s.Step() {
			}
		}},
		{"wheel/RunUntil", true, true, func(s *Sim) { s.RunUntil(100) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			if c.wheel {
				s.UseWheel()
			}
			var got []int
			note := func(i int) func() { return func() { got = append(got, i) } }
			s.At(10, note(1))
			s.At(20, func() {
				got = append(got, 2)
				if c.first {
					s.At(25, note(3))
				}
				panic("boom")
			})
			s.At(30, note(4))
			s.At(40, note(6))
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("callback panic did not reach the caller")
					}
				}()
				s.RunUntil(100)
			}()
			want := []int{1, 2, 4, 5, 6}
			pending := 2
			if c.first {
				want = []int{1, 2, 3, 4, 5, 6}
				pending = 3
			}
			if s.Pending() != pending {
				t.Fatalf("Pending() = %d after the panic, want %d", s.Pending(), pending)
			}
			s.At(35, note(5))
			c.resume(s)
			if len(got) != len(want) {
				t.Fatalf("fired %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fired %v, want %v", got, want)
				}
			}
			if s.Pending() != 0 || s.Now() != 40 {
				t.Fatalf("after the resumed run: %d pending at %v, want 0 at 40ns", s.Pending(), s.Now())
			}
		})
	}
}

func TestProcessedAndPending(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2", s.Processed())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

// Property: for any random set of schedule times, execution order is the
// sorted order (stable for ties by insertion).
func TestPropertyOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		s := New()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, raw := range times {
			at := Time(raw)
			i := i
			s.At(at, func() { got = append(got, rec{at, i}) })
		}
		s.Run()
		if len(got) != len(times) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].seq < got[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset removes exactly that subset.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		s := New()
		n := 1 + rng.Intn(50)
		ran := make([]bool, n)
		refs := make([]EventRef, n)
		for i := 0; i < n; i++ {
			i := i
			refs[i] = s.At(Time(rng.Intn(100)), func() { ran[i] = true })
		}
		canceled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				canceled[i] = true
				s.Cancel(refs[i])
			}
		}
		s.Run()
		for i := 0; i < n; i++ {
			if ran[i] == canceled[i] {
				t.Fatalf("iter %d event %d: ran=%v canceled=%v", iter, i, ran[i], canceled[i])
			}
		}
	}
}

func TestTimeFormatting(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2us"},
		{3 * Millisecond, "3ms"},
		{Second, "1s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if Time(1500*Millisecond).Seconds() != 1.5 {
		t.Errorf("Seconds() = %v", Time(1500*Millisecond).Seconds())
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(Time(j%97), func() {})
		}
		s.Run()
	}
}
