package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("final time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of schedule order: %v", order)
		}
	}
}

func TestEngineAfterChaining(t *testing.T) {
	var e Engine
	var times []Time
	var step func(now Time)
	step = func(now Time) {
		times = append(times, now)
		if len(times) < 5 {
			e.At(now+7, step)
		}
	}
	e.At(7, step)
	e.Run()
	for i, at := range times {
		if want := Time(7 * (i + 1)); at != want {
			t.Fatalf("times[%d] = %d, want %d", i, at, want)
		}
	}
}

func TestEnginePastPanics(t *testing.T) {
	var e Engine
	e.At(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func(Time) {})
}

func TestEngineMonotonicClockProperty(t *testing.T) {
	// Property: regardless of the (non-negative) delays scheduled, the
	// observed event times are non-decreasing.
	f := func(delays []uint16) bool {
		var e Engine
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.At(Time(d), func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineEventPoolAllocs pins the Event free list: once a replay-shaped
// loop reaches steady state (each fired event's struct feeds the next At),
// scheduling allocates nothing.
func TestEngineEventPoolAllocs(t *testing.T) {
	e := &Engine{}
	var hops int
	var hop func(now Time)
	hop = func(now Time) {
		hops++
		if hops%1000 != 0 {
			e.At(now+1, hop)
		}
	}
	e.At(0, hop)
	e.Run() // warm the pool and the heap capacity
	allocs := testing.AllocsPerRun(100, func() {
		e.At(e.Now()+1, hop)
		e.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule+run allocates %.1f objects per run, want 0", allocs)
	}
}
