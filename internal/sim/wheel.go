package sim

// This file implements the hierarchical timer wheel, the alternative
// scheduling backend to the slot-pooled 4-ary heap (DESIGN.md §12.4).
// The wheel trades the heap's O(log n) schedule/cancel for O(1) bucket
// insertion and lazy cancellation, which wins in the dense-timer regime
// (millions of concurrent pacing/RTO timers) where heap sift chains get
// deep and cache-hostile.
//
// Layout: four levels of 256 slots. Level 0 slots are 2^10 ns ≈ 1 µs
// wide, and each higher level's slots are 256× wider, so the wheel
// directly covers 2^42 ns ≈ 73 minutes of simulated time; entries beyond
// that sit in an overflow list that is re-distributed when the cursor
// reaches it. An entry at absolute time `at` lives at the lowest level
// whose current page contains `at` — exactly the bits-of-the-timestamp
// indexing of the classic hashed hierarchical wheel, so cascading an
// entry never changes its firing time, only its resolution.
//
// Determinism contract: firing order is exactly (at, ta, tie, seq),
// byte-for-byte the heap's order. Within one level-0 slot (which spans
// many distinct nanosecond timestamps) entries are sorted by that key
// when the cursor reaches the slot; entries scheduled below the cursor
// (always >= Now) are merged into the sorted drain buffer at their
// ordered position. The randomized differential test in wheel_test.go
// drives both backends through identical schedule/cancel/fire histories
// and asserts identical (time, seq) pop sequences.
//
// Cancellation is lazy: Cancel releases the pool slot (bumping its
// generation) and the wheel entry is skipped when its bucket drains,
// using the same (slot, generation) staleness rule as EventRef. A slot
// recycled into a new event gets a fresh generation, so a stale wheel
// entry can never fire the slot's next occupant.

const (
	wheelLevels   = 4
	wheelBits     = 8 // slots per level = 1 << wheelBits
	wheelSlots    = 1 << wheelBits
	wheelShift0   = 10 // level-0 slot width = 2^10 ns
	wheelSlotMask = wheelSlots - 1
)

// wheel is the hierarchical timer wheel state, owned by a Sim when the
// wheel backend is selected.
type wheel struct {
	// cur is the drain cursor: every entry with at < cur has been moved
	// into buf (or already fired). Invariant: cur <= min pending at + one
	// level-0 slot width, and Sim.now <= cur at all times.
	cur Time

	bucket [wheelLevels][wheelSlots][]entry
	occ    [wheelLevels][wheelSlots / 64]uint64 // occupancy bitmaps

	// overflow holds entries beyond the top level's current page.
	overflow []entry

	// buf is the sorted drain buffer for the level-0 slot the cursor last
	// opened; entries are consumed from bufHead. Storage is recycled.
	buf     []entry
	bufHead int

	// live counts scheduled-and-not-canceled events. Only the Sim's
	// schedule/cancel/fire paths touch it; internal moves (cascade,
	// overflow spill, drain) shuffle entry copies without changing it.
	live int
}

func levelShift(l int) uint { return uint(wheelShift0 + wheelBits*l) }

// insert places an entry at the lowest level whose current page contains
// at. Entries below the cursor (but never below Now — schedule panics on
// the past) merge into the sorted drain buffer.
//
//pdq:hotpath
func (w *wheel) insert(e entry) {
	if e.at < w.cur {
		w.bufInsert(e)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		shift := levelShift(l)
		if (e.at >> (shift + wheelBits)) == (w.cur >> (shift + wheelBits)) {
			idx := int(e.at>>shift) & wheelSlotMask
			w.bucket[l][idx] = append(w.bucket[l][idx], e)
			w.occ[l][idx/64] |= 1 << (uint(idx) % 64)
			return
		}
	}
	w.overflow = append(w.overflow, e)
}

// bufInsert merges e into the pending part of the sorted drain buffer.
//
//pdq:hotpath
func (w *wheel) bufInsert(e entry) {
	lo, hi := w.bufHead, len(w.buf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.buf[mid].less(&e.key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.buf = append(w.buf, entry{})
	copy(w.buf[lo+1:], w.buf[lo:])
	w.buf[lo] = e
}

// nextOcc returns the first occupied slot index >= from at level l.
func (w *wheel) nextOcc(l, from int) (int, bool) {
	for word := from / 64; word < wheelSlots/64; word++ {
		bits := w.occ[l][word]
		if word == from/64 {
			bits &^= (1 << (uint(from) % 64)) - 1
		}
		if bits != 0 {
			return word*64 + trailingZeros64(bits), true
		}
	}
	return 0, false
}

// trailingZeros64 is math/bits.TrailingZeros64, inlined here so the hot
// drain path needs no import beyond what the package already uses.
func trailingZeros64(v uint64) int {
	n := 0
	if v&0xFFFFFFFF == 0 {
		v >>= 32
		n += 32
	}
	if v&0xFFFF == 0 {
		v >>= 16
		n += 16
	}
	if v&0xFF == 0 {
		v >>= 8
		n += 8
	}
	if v&0xF == 0 {
		v >>= 4
		n += 4
	}
	if v&0x3 == 0 {
		v >>= 2
		n += 2
	}
	return n + int(v&1^1)
}

// takeBucket empties bucket (l, idx), clearing its occupancy bit, and
// returns its entries. The returned slice aliases the bucket's storage;
// the bucket keeps the capacity for reuse.
func (w *wheel) takeBucket(l, idx int) []entry {
	es := w.bucket[l][idx]
	w.bucket[l][idx] = es[:0]
	w.occ[l][idx/64] &^= 1 << (uint(idx) % 64)
	return es
}

// ensure refills the drain buffer until it holds at least one entry,
// advancing the cursor (with cascades) as needed. It returns false when
// no live entries remain anywhere in the wheel.
func (w *wheel) ensure(pool []event) bool {
	for w.bufHead >= len(w.buf) {
		w.buf = w.buf[:0]
		w.bufHead = 0
		if w.live == 0 {
			return false
		}
		// First distribute any higher-level bucket covering the cursor's
		// position — entries parked there before the cursor entered this
		// page must reach level 0 before any level-0 slot of the page
		// drains, or they would fire out of order.
		w.distributeCurrent(pool)
		// Next occupied level-0 slot in the cursor's current page.
		if idx, ok := w.nextOcc(0, int(w.cur>>wheelShift0)&wheelSlotMask); ok {
			slotStart := (w.cur &^ (Time(1)<<(wheelShift0+wheelBits) - 1)) | Time(idx)<<wheelShift0
			w.drainSlot(0, idx, pool)
			w.cur = slotStart + Time(1)<<wheelShift0
			continue
		}
		if !w.advance() {
			// Only the overflow list can still hold entries: teleport the
			// cursor to the earliest one's slot and re-distribute. live > 0
			// guarantees it is non-empty (stale copies never count).
			if len(w.overflow) == 0 {
				panic("sim: wheel cursor stuck with live entries")
			}
			w.spillOverflow()
		}
	}
	return true
}

// distributeCurrent re-inserts, highest level first, the bucket at each
// level's cursor slot: a level-3 bucket distributes into level 2, whose
// cursor bucket then distributes into level 1, and so on down to level 0.
// Buckets are cleared as they distribute, so the check is one bitmap word
// per level on the fast path.
func (w *wheel) distributeCurrent(pool []event) {
	for l := wheelLevels - 1; l >= 1; l-- {
		shift := levelShift(l)
		idx := int(w.cur>>shift) & wheelSlotMask
		if w.occ[l][idx/64]&(1<<(uint(idx)%64)) == 0 {
			continue
		}
		for _, e := range w.takeBucket(l, idx) {
			if pool[e.slot].gen == e.gen && pool[e.slot].idx == wheelIdx {
				w.insert(e)
			}
		}
	}
}

// drainSlot moves level-0 bucket idx into the buffer, dropping lazily
// canceled entries, and sorts it by (at, ta, tie, seq).
func (w *wheel) drainSlot(l, idx int, pool []event) {
	for _, e := range w.takeBucket(l, idx) {
		if pool[e.slot].gen == e.gen && pool[e.slot].idx == wheelIdx {
			w.buf = append(w.buf, e)
		}
	}
	sortEntries(w.buf)
}

// advance jumps the cursor to the next occupied slot of the lowest
// non-empty higher level (the cursor's own slots were just distributed,
// so their bits are clear). The caller's loop then distributes the slot
// via distributeCurrent. It reports whether any occupied slot was found.
func (w *wheel) advance() bool {
	for l := 1; l < wheelLevels; l++ {
		shift := levelShift(l)
		idx, ok := w.nextOcc(l, int(w.cur>>shift)&wheelSlotMask)
		if !ok {
			continue
		}
		pageBase := w.cur &^ (Time(1)<<(shift+wheelBits) - 1)
		w.cur = pageBase | Time(idx)<<shift
		return true
	}
	return false
}

// spillOverflow teleports the cursor to the earliest overflow entry and
// re-inserts every overflow entry; the ones within the new pages land in
// wheel levels, the rest return to overflow.
func (w *wheel) spillOverflow() {
	min := w.overflow[0].at
	for _, e := range w.overflow[1:] {
		if e.at < min {
			min = e.at
		}
	}
	w.cur = min &^ (Time(1)<<wheelShift0 - 1)
	pend := w.overflow
	w.overflow = nil
	for _, e := range pend {
		w.insert(e)
	}
}

// sortEntries orders entries by (at, ta, tie, seq) without allocating:
// insertion sort below a small threshold, otherwise an in-place heapsort.
func sortEntries(es []entry) {
	if len(es) <= 24 {
		for i := 1; i < len(es); i++ {
			e := es[i]
			j := i - 1
			for j >= 0 && e.less(&es[j].key) {
				es[j+1] = es[j]
				j--
			}
			es[j+1] = e
		}
		return
	}
	n := len(es)
	for i := n/2 - 1; i >= 0; i-- {
		siftEntries(es, i, n)
	}
	for i := n - 1; i > 0; i-- {
		es[0], es[i] = es[i], es[0]
		siftEntries(es, 0, i)
	}
}

func siftEntries(es []entry, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && es[c].less(&es[c+1].key) {
			c++
		}
		if !es[i].less(&es[c].key) {
			return
		}
		es[i], es[c] = es[c], es[i]
		i = c
	}
}

// peek returns the earliest pending entry without consuming it, or nil
// when the wheel is empty.
func (w *wheel) peek(pool []event) *entry {
	for w.ensure(pool) {
		e := &w.buf[w.bufHead]
		if pool[e.slot].gen == e.gen && pool[e.slot].idx == wheelIdx {
			return e
		}
		w.bufHead++ // canceled after the buffer was built
	}
	return nil
}

// pop consumes the entry peek returned.
func (w *wheel) pop() {
	w.bufHead++
	w.live--
}
