package sim

import (
	"testing"
	"testing/quick"
)

func TestServerSingleUnitFIFO(t *testing.T) {
	s := NewServer("bus", 1)
	start, done := s.Acquire(0, 100)
	if start != 0 || done != 100 {
		t.Fatalf("first request: start=%d done=%d", start, done)
	}
	// Arrives while busy: queues.
	start, done = s.Acquire(50, 100)
	if start != 100 || done != 200 {
		t.Fatalf("queued request: start=%d done=%d, want 100/200", start, done)
	}
	// Arrives after idle: starts immediately.
	start, done = s.Acquire(500, 10)
	if start != 500 || done != 510 {
		t.Fatalf("idle request: start=%d done=%d", start, done)
	}
	if s.Requests() != 3 {
		t.Fatalf("requests = %d, want 3", s.Requests())
	}
	if s.Waited() != 50 {
		t.Fatalf("waited = %d, want 50", s.Waited())
	}
}

func TestServerMultiUnitParallelism(t *testing.T) {
	s := NewServer("cores", 2)
	_, d1 := s.Acquire(0, 100)
	_, d2 := s.Acquire(0, 100)
	if d1 != 100 || d2 != 100 {
		t.Fatalf("two units should serve in parallel: %d %d", d1, d2)
	}
	start, _ := s.Acquire(0, 100)
	if start != 100 {
		t.Fatalf("third request should wait for a unit: start=%d", start)
	}
}

func TestServerUtilization(t *testing.T) {
	s := NewServer("x", 2)
	s.Acquire(0, 100)
	s.Acquire(0, 50)
	if got := s.Utilization(100); got != 0.75 {
		t.Fatalf("utilization = %v, want 0.75", got)
	}
}

func TestServerReset(t *testing.T) {
	s := NewServer("x", 1)
	s.Acquire(0, 100)
	s.Reset()
	if s.Busy() != 0 || s.Requests() != 0 || s.NextFree() != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestServerInvariantsProperty(t *testing.T) {
	// Properties for any arrival/service sequence: starts never precede
	// arrivals, completions equal start+service, and with one unit the
	// completions are non-decreasing (FIFO).
	f := func(reqs []struct {
		Gap uint16
		Dur uint16
	}) bool {
		s := NewServer("p", 1)
		var at, lastDone Time
		for _, r := range reqs {
			at += Time(r.Gap)
			start, done := s.Acquire(at, Duration(r.Dur))
			if start < at || done != start+Duration(r.Dur) || done < lastDone {
				return false
			}
			lastDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationForBytes(t *testing.T) {
	if d := DurationForBytes(0, 1e9); d != 0 {
		t.Fatalf("zero bytes should take zero time, got %d", d)
	}
	if d := DurationForBytes(1, 1e12); d != 1 {
		t.Fatalf("tiny transfer should round up to 1ns, got %d", d)
	}
	if d := DurationForBytes(600<<20, 600*1<<20); d != Second {
		t.Fatalf("600MB at 600MB/s should be 1s, got %v", d)
	}
}

func TestNewServerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewServer(0) did not panic")
		}
	}()
	NewServer("bad", 0)
}
