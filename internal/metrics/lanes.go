package metrics

import (
	"fmt"
	"math/bits"
)

// Lanes is the observation parallelism of AddLanes: one uint64 lane word
// carries one bit per pattern, matching the simulator's word-parallel
// core (sim.WordLanes, netlist.BatchLanes).
const Lanes = 64

// Transpose64 transposes the 64×64 bit matrix held in x in place (after:
// row k, bit i holds what row i, bit k held): the classic recursive
// block-swap (Hacker's Delight 7-3), 6 rounds of masked exchanges instead
// of 4096 single-bit moves. It converts between the two layouts the
// word-parallel flow uses — per-pattern words (pattern-indexed rows) and
// per-bit lane words (bit-position-indexed rows) — and is exported for
// the characterization flow's lane-image assembly.
func Transpose64(x *[64]uint64) {
	for j := 32; j != 0; j >>= 1 {
		// m selects the columns whose index has bit j clear (the low half
		// of each 2j-wide block).
		m := ^uint64(0) / (1<<uint(j) + 1)
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			// Swap the high-column bits of low row k with the low-column
			// bits of high row k+j: (k, c+j) ↔ (k+j, c).
			t := (x[k]>>uint(j) ^ x[k+j]) & m
			x[k] ^= t << uint(j)
			x[k+j] ^= t
		}
	}
}

// AddLanes records up to Lanes observations held in bit-sliced form:
// refs carries the golden words pattern by pattern (len(refs) = n ≤ 64);
// refLanes and got carry the golden and observed values as one lane word
// per output bit position (bit k of got[i] = output bit i under pattern
// k — exactly the layout of the word simulator's captured image, so a
// characterization sweep feeds it without unpacking). refLanes is refs
// transposed; lanes at or past n are ignored in both. len(refLanes) and
// len(got) must equal the accumulator's width.
//
// The bit-counting statistics (BER, WER, per-bit error probabilities,
// Hamming) are accumulated lane-parallel from the difference lanes — one
// popcount per output bit per 64 patterns. The value statistics need
// per-pattern difference words, recovered with one 64×64 bit transpose
// only when some lane differs, and are summed over the differing
// patterns in ascending order; every pattern's signal power is summed in
// order from refs. An error-free pattern adds +0.0 to the error sums,
// which start at +0 and only grow, so skipping it changes no bit:
// AddLanes is bit-for-bit interchangeable with n scalar Add calls (for
// widths ≤ 53, where a word's weighted distance is exactly
// representable; the simulator's outputs are ≤ 33 bits).
func (a *ErrorAccumulator) AddLanes(refs, refLanes, got []uint64) error {
	return a.AddLaneBlock(refs, refLanes, got, 1, 0)
}

// AddLaneBlock is AddLanes over one word of a flat K-word lane-block
// image: got carries K consecutive lane words per output bit position
// (the wide simulator's captured layout, got[i·words+word] = bit i's
// lane word for block word `word`), and the call records the ≤ 64
// observations of that word against their golden words and lanes.
// len(got) must equal width·words. A wide characterization sweep folds
// each 64-pattern block in ascending word order, which reproduces the
// per-64-chunk accumulation sequence — and therefore the exact floats —
// of the non-wide path.
func (a *ErrorAccumulator) AddLaneBlock(refs, refLanes, got []uint64, words, word int) error {
	n := len(refs)
	if n == 0 {
		return nil
	}
	if n > Lanes {
		return fmt.Errorf("metrics: %d observations exceed %d lanes", n, Lanes)
	}
	if a.width > Lanes {
		return fmt.Errorf("metrics: width %d exceeds the %d-bit lane transpose", a.width, Lanes)
	}
	if words < 1 || word < 0 || word >= words {
		return fmt.Errorf("metrics: block word %d outside %d-word blocks", word, words)
	}
	if len(got) != a.width*words {
		return fmt.Errorf("metrics: %d lane words for width %d × %d-word blocks",
			len(got), a.width, words)
	}
	if len(refLanes) != a.width {
		return fmt.Errorf("metrics: %d reference lane words for width %d", len(refLanes), a.width)
	}
	laneMask := ^uint64(0)
	if n < Lanes {
		laneMask = uint64(1)<<uint(n) - 1
	}
	// Bit-sliced counting on the difference lanes, one word per output
	// bit position.
	var diff [64]uint64
	var any, faulty uint64
	for i := 0; i < a.width; i++ {
		d := (refLanes[i] ^ got[i*words+word]) & laneMask
		diff[i] = d
		c := uint64(bits.OnesCount64(d))
		a.perBit[i] += c
		faulty += c
		any |= d
	}
	a.faultyBits += faulty
	a.hamming += faulty
	a.faultyWord += uint64(bits.OnesCount64(any))
	a.words += uint64(n)
	// Per-pattern value statistics, in pattern order. Only the differing
	// patterns contribute error; their difference words come from one
	// transpose of the difference lanes (rows past the width are zero).
	m := mask(a.width)
	if any != 0 {
		Transpose64(&diff) // diff[k] now holds pattern k's difference word
		for p := any; p != 0; p &= p - 1 {
			k := bits.TrailingZeros64(p)
			r := refs[k] & m
			// float64(d) == WeightedHamming(r, r^d, width) exactly: the
			// difference word is an integer below 2^width ≤ 2^53.
			a.weighted += float64(diff[k])
			a.sumSqErr += SquaredError(r, r^diff[k])
		}
	}
	for _, r := range refs {
		s := float64(r & m)
		a.sumSqSig += s * s
	}
	return nil
}
