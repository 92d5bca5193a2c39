package tee

import (
	"errors"
	"testing"

	"iceclave/internal/ftl"
	"iceclave/internal/sim"
)

// TestTeardownMatchesSweepOracle checks that releasing a dead TEE's
// owned-LPA list clears exactly what a sweep of the whole mapping table
// for its ID would. A seeded random lifecycle — creations, creations
// rejected and rolled back, WritePage adoptions, cross-TEE throw-outs,
// host throw-outs, and terminations
// deferred behind an in-flight operation — runs against a model of the
// ID bits that clears every entry carrying a reclaimed ID. After every
// step a full sweep of the table must equal the model, and no entry may
// carry an ID that no live TEE holds.
func TestTeardownMatchesSweepOracle(t *testing.T) {
	t.Run("claim", func(t *testing.T) {
		rt, f := testRuntime(t)
		writePages(t, f, lifecycleLPAs, 0x40)
		o := &lifecycleOracle{t: t, rt: rt, f: f, owner: map[ftl.LPA]ftl.TEEID{}, seen: map[string]int{}}
		rng := sim.NewRNG(42)
		for step := 0; step < 1500; step++ {
			o.step(rng)
			o.check(step)
		}
		for len(o.pending) > 0 {
			o.endDeferred(0)
		}
		for len(o.live) > 0 {
			o.terminate(0)
		}
		o.check(-1)
		if n := rt.Live(); n != 0 {
			t.Fatalf("%d TEEs live after draining", n)
		}
		for _, ev := range []string{"created", "rejected-owned", "rolled-back", "no-free-id",
			"adopted", "cross-throw-out", "deferred"} {
			if o.seen[ev] == 0 {
				t.Errorf("the lifecycle never exercised %q: %v", ev, o.seen)
			}
		}
	})
}

// lifecycleLPAs is the oracle's page universe: small enough that random
// creations collide with live owners often.
const lifecycleLPAs = 40

// lifecycleOracle drives one runtime through random lifecycle steps and
// models the mapping table's ID bits.
type lifecycleOracle struct {
	t     *testing.T
	rt    *Runtime
	f     *ftl.FTL
	owner map[ftl.LPA]ftl.TEEID // modelled ID bits; absent means IDNone
	held  [16]bool              // IDs a TEE holds until its reclaim
	live  []*TEE                // running TEEs
	// pending holds TEEs terminated or thrown out while an operation was
	// in flight; their reclaim waits for that operation's endOp.
	pending []*TEE
	seen    map[string]int // how often each lifecycle path ran
}

func (o *lifecycleOracle) step(rng *sim.RNG) {
	switch n := rng.Intn(16); {
	case n < 5 || len(o.live) == 0:
		o.create(rng)
	case n < 8:
		o.write(o.live[rng.Intn(len(o.live))], ftl.LPA(rng.Intn(lifecycleLPAs)))
	case n < 10:
		o.crossRead(rng)
	case n < 12:
		o.terminate(rng.Intn(len(o.live)))
	case n < 13:
		i := rng.Intn(len(o.live))
		tee := o.live[i]
		o.rt.ThrowOutTEE(tee, "host throw-out")
		o.drop(i)
		o.reclaimed(tee)
	case n < 15:
		o.deferTeardown(rng.Intn(len(o.live)), rng.Bool(0.5))
	default:
		if len(o.pending) > 0 {
			o.endDeferred(rng.Intn(len(o.pending)))
		}
	}
}

// create requests 1–4 random LPAs, sometimes with an out-of-range one
// that fails the creation part-way, and predicts the outcome: the ID
// allocated, the stamps applied, or the rollback.
func (o *lifecycleOracle) create(rng *sim.RNG) {
	lpas := make([]ftl.LPA, 1+rng.Intn(4))
	for i := range lpas {
		lpas[i] = ftl.LPA(rng.Intn(lifecycleLPAs))
	}
	if rng.Bool(0.1) {
		lpas[rng.Intn(len(lpas))] = ftl.LPA(o.f.LogicalPages())
	}
	id := ftl.IDNone
	for c := ftl.TEEID(1); c <= ftl.MaxTEEID; c++ {
		if !o.held[c] {
			id = c
			break
		}
	}
	tee, err := o.rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas})
	if id == ftl.IDNone {
		if !errors.Is(err, ErrNoFreeID) {
			o.t.Fatalf("create with every ID held: %v, want ErrNoFreeID", err)
		}
		o.seen["no-free-id"]++
		return
	}
	stamped, owned := len(lpas), false
	for i, l := range lpas {
		if int64(l) >= o.f.LogicalPages() {
			stamped = i
			break
		}
		if cur := o.owner[l]; cur != ftl.IDNone && cur != id {
			stamped, owned = i, true
			break
		}
	}
	for _, l := range lpas[:stamped] {
		o.owner[l] = id
	}
	if stamped < len(lpas) {
		if err == nil || errors.Is(err, ErrLPAOwned) != owned {
			o.t.Fatalf("create %v stamping %d of %d: err %v, ErrLPAOwned expected %v", lpas, stamped, len(lpas), err, owned)
		}
		o.clear(id)
		o.seen["rolled-back"]++
		if owned {
			o.seen["rejected-owned"]++
		}
		return
	}
	if err != nil {
		o.t.Fatalf("create %v: %v", lpas, err)
	}
	if tee.EID() != id {
		o.t.Fatalf("create got ID %d, want lowest free %d", tee.EID(), id)
	}
	o.held[id] = true
	o.live = append(o.live, tee)
	o.seen["created"]++
}

// write has tee write l: an unowned page is adopted, its own page is
// rewritten, and another TEE's page throws tee out.
func (o *lifecycleOracle) write(tee *TEE, l ftl.LPA) {
	err := o.rt.WritePage(tee, l, []byte{byte(l)})
	switch cur := o.owner[l]; cur {
	case ftl.IDNone, tee.EID():
		if err != nil {
			o.t.Fatalf("TEE %d write of LPA %d (owner %d): %v", tee.EID(), l, cur, err)
		}
		if cur == ftl.IDNone {
			o.seen["adopted"]++
		}
		o.owner[l] = tee.EID()
	default:
		if !errors.Is(err, ftl.ErrAccessDenied) {
			o.t.Fatalf("TEE %d write of LPA %d owned by %d: %v, want denial", tee.EID(), l, cur, err)
		}
		o.throwOut(tee)
	}
}

// crossRead has a random live TEE read a page another TEE owns, which
// must throw the reader out; the reclaim runs at the read's endOp.
func (o *lifecycleOracle) crossRead(rng *sim.RNG) {
	reader := o.live[rng.Intn(len(o.live))]
	start := rng.Intn(lifecycleLPAs)
	for k := 0; k < lifecycleLPAs; k++ {
		l := ftl.LPA((start + k) % lifecycleLPAs)
		if cur := o.owner[l]; cur != ftl.IDNone && cur != reader.EID() {
			if _, err := o.rt.ReadPage(reader, l); !errors.Is(err, ftl.ErrAccessDenied) {
				o.t.Fatalf("TEE %d read of LPA %d owned by %d: %v, want denial", reader.EID(), l, cur, err)
			}
			o.throwOut(reader)
			o.seen["cross-throw-out"]++
			return
		}
	}
}

func (o *lifecycleOracle) terminate(i int) {
	tee := o.live[i]
	if err := o.rt.TerminateTEE(tee, nil); err != nil {
		o.t.Fatal(err)
	}
	o.drop(i)
	o.reclaimed(tee)
}

// deferTeardown ends a TEE (terminated or thrown out) while one of its
// operations is in flight: its ID and stamps must survive until endOp.
func (o *lifecycleOracle) deferTeardown(i int, abort bool) {
	tee := o.live[i]
	if ok, _ := tee.beginOp(); !ok {
		o.t.Fatalf("TEE %d refused an operation while running", tee.EID())
	}
	if abort {
		o.rt.ThrowOutTEE(tee, "violation mid-operation")
	} else if err := o.rt.TerminateTEE(tee, nil); err != nil {
		o.t.Fatal(err)
	}
	o.drop(i)
	o.pending = append(o.pending, tee)
	o.seen["deferred"]++
}

func (o *lifecycleOracle) endDeferred(i int) {
	tee := o.pending[i]
	o.pending = append(o.pending[:i], o.pending[i+1:]...)
	o.rt.endOp(tee)
	o.reclaimed(tee)
}

func (o *lifecycleOracle) throwOut(tee *TEE) {
	for i, lt := range o.live {
		if lt == tee {
			o.drop(i)
			o.reclaimed(tee)
			return
		}
	}
	o.t.Fatalf("TEE %d thrown out but not live", tee.EID())
}

func (o *lifecycleOracle) drop(i int) { o.live = append(o.live[:i], o.live[i+1:]...) }

// reclaimed models a TEE's reclaim: every entry carrying its ID clears —
// the full-table sweep the owned-list release must match — and the ID
// becomes free.
func (o *lifecycleOracle) reclaimed(tee *TEE) {
	if st := tee.State(); st != StateTerminated && st != StateAborted {
		o.t.Fatalf("TEE %d reclaimed in state %v", tee.EID(), st)
	}
	o.clear(tee.EID())
	o.held[tee.EID()] = false
}

func (o *lifecycleOracle) clear(id ftl.TEEID) {
	for l, cur := range o.owner {
		if cur == id {
			delete(o.owner, l)
		}
	}
}

// check sweeps the whole mapping table: every entry's ID bits must equal
// the model's, and every nonzero ID must belong to a TEE the runtime
// still holds.
func (o *lifecycleOracle) check(step int) {
	o.t.Helper()
	o.rt.mu.Lock()
	holders := make(map[ftl.TEEID]bool, len(o.rt.tees))
	for id := range o.rt.tees {
		holders[id] = true
	}
	o.rt.mu.Unlock()
	for l := ftl.LPA(0); int64(l) < o.f.LogicalPages(); l++ {
		got, err := o.f.IDOf(l)
		if err != nil {
			o.t.Fatal(err)
		}
		if want := o.owner[l]; got != want {
			o.t.Fatalf("step %d: LPA %d carries ID %d, model says %d", step, l, got, want)
		}
		if got != ftl.IDNone && !holders[got] {
			o.t.Fatalf("step %d: LPA %d carries ID %d, which no live TEE holds", step, l, got)
		}
	}
	for id := ftl.TEEID(1); id <= ftl.MaxTEEID; id++ {
		if holders[id] != o.held[id] {
			o.t.Fatalf("step %d: runtime holds ID %d: %v, model says %v", step, id, holders[id], o.held[id])
		}
	}
}
