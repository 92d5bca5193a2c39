package ftl

import (
	"errors"
	"testing"

	"iceclave/internal/flash"
	"iceclave/internal/sim"
)

// countInjector fails the first failN operations of a kind, then passes.
type countInjector struct {
	readErr, progErr     error
	failReads, failProgs uint64
}

func (c *countInjector) Read(at sim.Time, ch, die int, n uint64) error {
	if n < c.failReads {
		return c.readErr
	}
	return nil
}
func (c *countInjector) Program(at sim.Time, ch, die int, n uint64) error {
	if n < c.failProgs {
		return c.progErr
	}
	return nil
}
func (c *countInjector) Erase(at sim.Time, ch, die int, n uint64) error { return nil }

func TestReadRetryRecoversTransient(t *testing.T) {
	f := newTestFTL(t)
	data := make([]byte, 64)
	copy(data, "survives the transient")
	done, err := f.Write(0, 3, data)
	if err != nil {
		t.Fatal(err)
	}
	f.Device().SetInjector(&countInjector{readErr: flash.ErrTransientRead, failReads: 2})
	rdone, got, err := f.Read(done, 3)
	if err != nil {
		t.Fatalf("read with 2 transients and 3 retries failed: %v", err)
	}
	if string(got[:22]) != "survives the transient" {
		t.Fatalf("read back %q", got[:22])
	}
	if rdone <= done {
		t.Fatal("retried read charged no time")
	}
	if got := f.Stats().ReadRetries; got != 2 {
		t.Fatalf("ReadRetries = %d, want 2", got)
	}
}

func TestReadRetryBudgetExhausts(t *testing.T) {
	f := newTestFTL(t)
	done, err := f.Write(0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// More consecutive transients than the default budget of 3 retries.
	f.Device().SetInjector(&countInjector{readErr: flash.ErrTransientRead, failReads: 10})
	if _, _, err := f.Read(done, 3); !errors.Is(err, flash.ErrTransientRead) {
		t.Fatalf("err = %v, want ErrTransientRead after budget exhausted", err)
	}
	if got := f.Stats().ReadRetries; got != 3 {
		t.Fatalf("ReadRetries = %d, want 3", got)
	}
}

func TestProgramFailRetiresBlockAndRestages(t *testing.T) {
	f := newTestFTL(t)
	f.Device().SetInjector(&countInjector{progErr: flash.ErrProgramFail, failProgs: 1})
	done, err := f.Write(0, 5, []byte("made it"))
	if err != nil {
		t.Fatalf("write with one program failure did not recover: %v", err)
	}
	st := f.Stats()
	if st.ProgramFails != 1 || st.BadBlocks != 1 {
		t.Fatalf("stats = %+v, want 1 program fail and 1 bad block", st)
	}
	// The re-staged write landed and reads back.
	if _, got, err := f.Read(done, 5); err != nil || string(got[:7]) != "made it" {
		t.Fatalf("read after recovery: %q, %v", got, err)
	}
	// A retired block never hosts new writes: hammer writes across both
	// channels and confirm nothing beyond the injector's per-channel
	// ordinal-0 failure retires a block (ordinals are per channel, so
	// each of the two channels loses exactly one block).
	at := done
	for i := 0; i < 200; i++ {
		if at, err = f.Write(at, LPA(i%16), nil); err != nil {
			t.Fatalf("write %d after retirement: %v", i, err)
		}
	}
	if got := f.Stats().BadBlocks; got != 2 {
		t.Fatalf("BadBlocks = %d, want 2 (one per channel)", got)
	}
}

func TestDieDeathDegradesToSurvivors(t *testing.T) {
	// Geometry with 2 dies on the channel so one can die.
	geo := smallGeometry()
	geo.DiesPerChip = 2
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f := New(dev)
	// Kill every program on die 0 of every channel: allocation must fail
	// over to die 1 and keep succeeding.
	dev.SetInjector(dieKiller{die: 0})
	at := sim.Time(0)
	for i := 0; i < 32; i++ {
		if at, err = f.Write(at, LPA(i), nil); err != nil {
			t.Fatalf("write %d with a dead die: %v", i, err)
		}
	}
	st := f.Stats()
	if st.DeadDies == 0 {
		t.Fatalf("stats = %+v, want dead dies recorded", st)
	}
	// Reads of the survivor pages work (die 1 is alive).
	if _, _, err := f.Read(at, 0); err != nil {
		t.Fatalf("read after die death: %v", err)
	}
}

// dieKiller reports a given channel-local die permanently dead.
type dieKiller struct{ die int }

func (k dieKiller) Read(at sim.Time, ch, die int, n uint64) error {
	if die == k.die {
		return flash.ErrDieDead
	}
	return nil
}
func (k dieKiller) Program(at sim.Time, ch, die int, n uint64) error {
	if die == k.die {
		return flash.ErrDieDead
	}
	return nil
}
func (k dieKiller) Erase(at sim.Time, ch, die int, n uint64) error {
	if die == k.die {
		return flash.ErrDieDead
	}
	return nil
}

func TestRetiredBlockPagesStayReadable(t *testing.T) {
	f := newTestFTL(t)
	// Land a page on each channel first, fault-free.
	var at sim.Time
	var err error
	for i := 0; i < 8; i++ {
		if at, err = f.Write(at, LPA(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Fail the next program on each channel: the active blocks (holding
	// the pages above) get retired, but their valid pages must remain
	// readable — retirement is write-side only.
	f.Device().SetInjector(&countInjector{progErr: flash.ErrProgramFail, failProgs: 1})
	for i := 8; i < 16; i++ {
		if at, err = f.Write(at, LPA(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().BadBlocks == 0 {
		t.Fatal("no block retired")
	}
	for i := 0; i < 16; i++ {
		_, got, err := f.Read(at, LPA(i))
		if err != nil {
			t.Fatalf("read %d after retirement: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("page %d read back %d", i, got[0])
		}
	}
}

func TestResetRestoresFaultState(t *testing.T) {
	f := newTestFTL(t)
	f.Device().SetInjector(&countInjector{progErr: flash.ErrProgramFail, failProgs: 2})
	at, err := f.Write(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(at, 2, nil); err != nil {
		t.Fatal(err)
	}
	if f.Stats().BadBlocks == 0 {
		t.Fatal("setup did not retire any block")
	}
	f.Device().SetInjector(nil)
	f.Device().Reset()
	f.Reset()
	st := f.Stats()
	if st.BadBlocks != 0 || st.DeadDies != 0 || st.ProgramFails != 0 || st.ReadRetries != 0 {
		t.Fatalf("stats after Reset = %+v, want zeroes", st)
	}
	// Full capacity is back: a fresh FTL on this geometry can absorb the
	// same write load without ErrDeviceFull.
	var t2 sim.Time
	for i := 0; i < 64; i++ {
		if t2, err = f.Write(t2, LPA(i%16), nil); err != nil {
			t.Fatalf("write %d after Reset: %v", i, err)
		}
	}
}
