package sched

// queue is the admission policy both gates drive: the goroutine pool in
// sched.go on the wall clock and Gate in gate.go on the virtual clock.
// Entries wait FIFO in one of three priority bands; pop grants the
// highest band first, skips (rather than head-of-line blocks on) an entry
// whose key is at its per-key cap, and stops at the global cap. A
// non-positive cap means unlimited; the pool sets the per-key cap from
// Config.TenantMaxInFlight, and the gate sets none. The queue never knows
// which clock drives it; the caller's lock or goroutine owns it.
type queue[T any] struct {
	bands   [numPriorities][]entry[T]
	slots   int            // global cap on granted entries; <= 0 means unlimited
	perKey  int            // per-key cap on granted entries; <= 0 means unlimited
	waiting int            // entries in bands
	running int            // granted entries not yet done
	byKey   map[string]int // granted entries per key; kept only under a per-key cap
}

// entry is one waiting item.
type entry[T any] struct {
	key string
	v   T
}

func newQueue[T any](slots, perKey int) queue[T] {
	return queue[T]{slots: slots, perKey: perKey, byKey: make(map[string]int)}
}

// push appends v under key at the tail of its priority band.
func (q *queue[T]) push(key string, prio Priority, v T) {
	q.bands[prio] = append(q.bands[prio], entry[T]{key, v})
	q.waiting++
}

// next locates the entry pop would grant: the first entry, highest band
// first, whose key is below its cap. It returns p < 0 when the global cap
// is reached or every waiting key is at its cap.
func (q *queue[T]) next() (p Priority, i int) {
	if q.slots > 0 && q.running >= q.slots {
		return -1, 0
	}
	for p = numPriorities - 1; p >= 0; p-- {
		for i, e := range q.bands[p] {
			if q.perKey <= 0 || q.byKey[e.key] < q.perKey {
				return p, i
			}
		}
	}
	return -1, 0
}

// pop grants the next entry the caps admit and reports whether there was
// one. Taking a band's head reslices the band; a grant from behind
// skipped entries shifts only those entries up one place. So a pop moves
// no more entries than it scanned, and neither path allocates.
func (q *queue[T]) pop() (T, bool) {
	p, i := q.next()
	if p < 0 {
		var zero T
		return zero, false
	}
	b := q.bands[p]
	e := b[i]
	copy(b[1:i+1], b[:i])
	b[0] = entry[T]{}
	if len(b) == 1 {
		b = b[:0] // keep the band's array for the next push
	} else {
		b = b[1:]
	}
	q.bands[p] = b
	q.waiting--
	q.running++
	if q.perKey > 0 {
		q.byKey[e.key]++
	}
	return e.v, true
}

// done returns a granted entry's slot under key.
func (q *queue[T]) done(key string) {
	q.running--
	if q.perKey <= 0 {
		return
	}
	if n := q.byKey[key] - 1; n > 0 {
		q.byKey[key] = n
	} else {
		delete(q.byKey, key)
	}
}
