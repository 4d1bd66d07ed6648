package sim

import "math"

// qev is one scheduled event: a (time, seq) ordering key plus an engine
// payload. The queue's cost is cache traffic, not arithmetic, so payloads
// stay small: the scalar engine's gateValue keeps the event at 24 bytes,
// the wide engine's wideRef at 32. The bucket index is not stored:
// int64(time*inv) is a pure function of the stored time, so push and pop
// recompute the identical value.
type qev[P any] struct {
	time    float64
	seq     uint64 // tie-break so equal-time events fire in schedule order
	payload P
}

// before is the queue's total order: strictly (time, seq).
func (x *qev[P]) before(y *qev[P]) bool {
	if x.time != y.time {
		return x.time < y.time
	}
	return x.seq < y.seq
}

// bucket is one ring slot: a slice consumed from head after a lazy sort.
type bucket[P any] struct {
	evs    []qev[P]
	head   int
	sorted bool
}

// calQueue is a bucketed time-wheel (calendar) event queue, generic over
// the event payload so the scalar and the K×64-lane wide engine share one
// implementation with no boxing and no comparator indirection. Pending
// event times always span at most one maximum gate delay (events are
// scheduled at now+delay and popped in time order), so a power-of-two ring
// covering ⌈maxDelay/width⌉+2 buckets holds every in-flight event; push
// appends to the bucket floor(time/width) masked into the ring. When the
// cursor reaches a bucket it is sorted once by (time, seq) — buckets whose
// events arrived already ordered, notably a wave of simultaneous events
// pushed in seq order, skip the sort entirely — and consumed sequentially.
// Pushes are branch-predictable appends; there is no heap sift traffic.
//
// Ordering is identical to the heap it replaces: the strict (time, seq)
// minimum is returned, so event schedules — and therefore captured words,
// energies and statistics — are bit-identical to the pre-calendar core.
type calQueue[P any] struct {
	buckets []bucket[P]
	mask    int64 // len(buckets)-1; the ring length is a power of two
	width   float64
	inv     float64 // 1/width: pushes multiply instead of divide
	count   int
	// curIdx is the monotone virtual bucket cursor: every pending event has
	// idx ≥ curIdx (pushes below the cursor pull it back down). curSlot
	// caches curIdx&mask so the scan never divides.
	curIdx  int64
	curSlot int64
}

// maxCalBuckets caps the ring so a pathological delay spread cannot explode
// memory; beyond it the bucket width grows instead (buckets then hold more
// than one delay generation, which is slower but still correct).
const maxCalBuckets = 4096

// init sizes the ring from the engine's delay range. minDelay is the
// smallest positive gate delay: with width ≤ minDelay, an event pushed
// while a bucket is being consumed can never land in that same bucket,
// which keeps the lazy sort a once-per-revolution affair.
//
// fineness divides the bucket width below that baseline: the wide engine
// carries ~K·64× the scalar engine's event density, and narrower buckets
// keep per-bucket populations inside the cheap nearly-sorted
// insertion-sort regime. Any fineness ≥ 1 is correct (the no-push-into-
// consumed-bucket margin only tightens); it is purely a sort-granularity
// knob.
func (q *calQueue[P]) init(minDelay, maxDelay float64, fineness float64) {
	if minDelay <= 0 || math.IsInf(minDelay, 0) || maxDelay <= 0 {
		// Degenerate netlists (no gates, or all zero delays): any ring works
		// because every event lands in the cursor's bucket.
		q.width = 1
		q.inv = 1
		q.grow(4)
		return
	}
	// Baseline target width: half the minimum delay. Besides spreading
	// simultaneous wave generations over more buckets (smaller sorts), the
	// full-bucket margin guarantees a push can never land in the bucket
	// being consumed, even at floating-point boundaries.
	target := minDelay / (2 * fineness)
	need := int(math.Ceil(maxDelay/target)) + 2
	nb := 4
	for nb < need && nb < maxCalBuckets {
		nb *= 2
	}
	q.width = maxDelay / float64(nb-2)
	if q.width < target {
		q.width = target
	}
	q.inv = 1 / q.width
	q.grow(nb)
}

// grow installs a fresh power-of-two ring of nb buckets.
func (q *calQueue[P]) grow(nb int) {
	q.buckets = make([]bucket[P], nb)
	q.mask = int64(nb - 1)
	q.curSlot = q.curIdx & q.mask
}

// clear discards all pending events, keeping bucket capacity.
func (q *calQueue[P]) clear() {
	for i := range q.buckets {
		b := &q.buckets[i]
		b.evs, b.head, b.sorted = b.evs[:0], 0, true
	}
	q.count = 0
	q.curIdx = 0
	q.curSlot = 0
}

func (q *calQueue[P]) len() int { return q.count }

// push schedules ev. The bucket index is int64(time*inv) — a pure function
// of the stored time (non-negative, so integer truncation is floor) — and
// pop qualification recomputes the identical expression, so placement and
// qualification can never disagree through floating-point boundary
// rounding.
func (q *calQueue[P]) push(ev qev[P]) {
	idx := int64(ev.time * q.inv)
	if q.count == 0 || idx < q.curIdx {
		q.curIdx = idx
		q.curSlot = idx & q.mask
	} else if idx-q.curIdx > q.mask {
		// The pending span outgrew the ring (possible only for degenerate
		// delay ranges): regrow and rehash.
		q.regrow(idx)
	}
	b := &q.buckets[idx&q.mask]
	// Appends that keep the active region ordered — the overwhelmingly
	// common case, since pops launch pushes in time order and simultaneous
	// events arrive in seq order — never pay a sort.
	if b.sorted && len(b.evs) > b.head && ev.before(&b.evs[len(b.evs)-1]) {
		b.sorted = false
	}
	b.evs = append(b.evs, ev)
	q.count++
}

// regrow widens the ring until idx fits alongside the current cursor.
func (q *calQueue[P]) regrow(idx int64) {
	nb := len(q.buckets)
	for idx-q.curIdx >= int64(nb) {
		nb *= 2
	}
	old := q.buckets
	q.grow(nb)
	for i := range old {
		for _, ev := range old[i].evs[old[i].head:] {
			b := &q.buckets[int64(ev.time*q.inv)&q.mask]
			if b.sorted && len(b.evs) > 0 && ev.before(&b.evs[len(b.evs)-1]) {
				b.sorted = false
			}
			b.evs = append(b.evs, ev)
		}
	}
}

// advance resets the exhausted or foreign current bucket state and moves
// the cursor one bucket forward.
func (q *calQueue[P]) advance(b *bucket[P]) {
	if b.head >= len(b.evs) {
		b.evs, b.head, b.sorted = b.evs[:0], 0, true
	} else {
		// Only future-revolution events remain: compact the consumed
		// prefix away; the cursor will come back around.
		n := copy(b.evs, b.evs[b.head:])
		b.evs, b.head = b.evs[:n], 0
	}
	q.curIdx++
	q.curSlot = (q.curSlot + 1) & q.mask
}

// popMin removes and returns the (time, seq)-minimal pending event.
func (q *calQueue[P]) popMin() (qev[P], bool) {
	if q.count == 0 {
		var zero qev[P]
		return zero, false
	}
	for {
		b := &q.buckets[q.curSlot]
		if b.head >= len(b.evs) {
			q.advance(b)
			continue
		}
		if !b.sorted {
			sortEvents(b.evs[b.head:])
			b.sorted = true
		}
		ev := b.evs[b.head]
		if int64(ev.time*q.inv) != q.curIdx {
			q.advance(b)
			continue
		}
		b.head++
		q.count--
		return ev, true
	}
}

// popIfBefore removes and returns the minimal pending event if its time is
// ≤ bound; otherwise the queue is left intact. Sorting by (time, seq) puts
// current-revolution events first: floor(time/width) is monotone in time,
// so smaller idx can never follow larger time. Advancing past buckets that
// hold only future-revolution events is sound — their idx exceeds the
// cursor, so they are revisited on a later revolution.
func (q *calQueue[P]) popIfBefore(bound float64) (qev[P], bool) {
	if q.count == 0 {
		var zero qev[P]
		return zero, false
	}
	for {
		b := &q.buckets[q.curSlot]
		if b.head >= len(b.evs) {
			q.advance(b)
			continue
		}
		if !b.sorted {
			sortEvents(b.evs[b.head:])
			b.sorted = true
		}
		ev := b.evs[b.head]
		if int64(ev.time*q.inv) != q.curIdx {
			q.advance(b)
			continue
		}
		if ev.time > bound {
			var zero qev[P]
			return zero, false
		}
		b.head++
		q.count--
		return ev, true
	}
}

// sortEvents orders evs by (time, seq) with direct field comparisons —
// no comparator indirection. Small runs use insertion sort; larger ones
// quicksort on a median-of-three pivot. Any correct sort yields the same
// order: (time, seq) is total.
func sortEvents[P any](evs []qev[P]) {
	for len(evs) > 20 {
		lo, hi := 0, len(evs)-1
		mid := lo + (hi-lo)/2
		// Median-of-three to evs[mid].
		if evs[mid].before(&evs[lo]) {
			evs[mid], evs[lo] = evs[lo], evs[mid]
		}
		if evs[hi].before(&evs[lo]) {
			evs[hi], evs[lo] = evs[lo], evs[hi]
		}
		if evs[hi].before(&evs[mid]) {
			evs[hi], evs[mid] = evs[mid], evs[hi]
		}
		pivot := evs[mid]
		i, j := lo, hi
		for i <= j {
			for evs[i].before(&pivot) {
				i++
			}
			for pivot.before(&evs[j]) {
				j--
			}
			if i <= j {
				evs[i], evs[j] = evs[j], evs[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j-lo < hi-i {
			sortEvents(evs[lo : j+1])
			evs = evs[i:]
		} else {
			sortEvents(evs[i:])
			evs = evs[:j+1]
		}
	}
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i - 1
		for j >= 0 && ev.before(&evs[j]) {
			evs[j+1] = evs[j]
			j--
		}
		evs[j+1] = ev
	}
}
