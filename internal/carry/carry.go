// Package carry provides the carry-chain arithmetic at the heart of the
// paper's statistical model (Section IV): the theoretical maximal carry
// chain Cthmax of an operand pair, and the carry-limited "modified adder"
// that computes a sum whose carries may travel at most C positions from
// their generation point.
//
// Chain-length convention: a carry born at generate position j (a_j = b_j
// = 1) that is then propagated through positions j+1 … j+L−1 has traveled
// L positions when it reaches position j+L. For an N-bit adder the chain
// length therefore lies in [0, N]: 0 when no carry is generated anywhere,
// N when a carry born at bit 0 propagates out of the carry output. This
// matches Table I's 0…N columns.
//
// Cthmax and LimitedAdd work on whole words rather than walking the
// chains bit by bit. Let p = a⊕b be the propagate word and c the exact
// carry word, bit i set when a carry enters position i: c = (a+b)⊕a⊕b,
// with the carry out at bit N. Put x_1 = c and x_{k+1} = (x_k & p) << 1.
// Bit i of x_k is set exactly when the carry entering position i has
// traveled at least k positions. For k = 1 that is the definition of c.
// For the step, the carry entering i comes from position i−1, which
// either generates (a fresh chain of length 1), kills (no carry), or
// propagates a carry that entered it with length L, which then enters i
// with length L+1; so the length is at least k+1 exactly when p_{i−1} is
// set and bit i−1 of x_k is set. The words shrink, x_1 ⊇ x_2 ⊇ …, hence:
//
//   - Cthmax, the longest chain, is the number of non-zero x_k;
//   - truncating every chain after cmax positions keeps exactly the
//     carries of c outside x_{cmax+1}, so the modified sum is
//     p ⊕ (c &^ x_{cmax+1}).
//
// Each step is three word operations, and the walk runs once per unit of
// chain length instead of once per bit. Chains and Truncate are these two
// walks; Cthmax and LimitedAdd are built on them. The count takes the
// first five steps unconditionally and adds up which words are non-zero
// without a branch, looping only past x_5: chains are short in the
// applications the model serves (at the Monte Carlo fir workload's RCA16
// point, 96% of a rep's adds have Cthmax ≤ 5), and a loop that exits at
// a data-dependent step mispredicts its exit. At N = 64 the carry out
// does not fit in c. No carry enters position 0, so Cthmax counts there
// one position down: bit i of c>>1 (with the carry out, from bits.Add64,
// at bit 63) is the carry entering position i+1, and the same step
// applies with the propagate word p>>1.
package carry

import (
	"fmt"
	"math/bits"
)

// MaxWidth is the widest adder LimitedAdd and the models built on it
// accept: the sum of two MaxWidth-bit operands, carry out included,
// fits one uint64.
const MaxWidth = 63

func mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(width) - 1
}

// GenProp returns the bitwise generate (a·b) and propagate (a⊕b) words.
func GenProp(a, b uint64, width int) (g, p uint64) {
	m := mask(width)
	return a & b & m, (a ^ b) & m
}

// carries returns the propagate word p and the exact carry word c of a+b
// over the masked operands, plus cout, the carry out of bit 63 that c
// cannot hold. Below width 64 the carry out is bit width of c and cout
// is 0.
func carries(a, b uint64, width int) (p, c, cout uint64) {
	m := mask(width)
	a, b = a&m, b&m
	sum, cout := bits.Add64(a, b, 0)
	p = a ^ b
	return p, sum ^ p, cout
}

// Chains returns the words of a width-bit addition of a and b, for width
// in [0, MaxWidth] (unchecked): the sum of the masked operands with the
// carry out at bit width, the propagate word p, the exact carry word c
// and Cthmax, the number of non-zero words x_k. Truncate(p, c, cmax) then
// gives the modified sum for any cmax, which is sum itself for cmax ≥
// Cthmax.
func Chains(a, b uint64, width int) (sum, p, c uint64, cth int) {
	m := uint64(1)<<(uint(width)%64) - 1 // width < 64: %64 only drops the shift's range check
	a, b = a&m, b&m
	sum, p = a+b, a^b
	c = sum ^ p
	return sum, p, c, chainLen(p, c)
}

// chainLen returns the number of non-zero words x_1 = c, x_{k+1} =
// (x_k & p) << 1. It counts x_1 … x_5 without a data-dependent branch
// and loops only past x_5 (see the package comment for why).
func chainLen(p, c uint64) int {
	x2 := (c & p) << 1
	x3 := (x2 & p) << 1
	x4 := (x3 & p) << 1
	x5 := (x4 & p) << 1
	n := nonZero(c) + nonZero(x2) + nonZero(x3) + nonZero(x4) + nonZero(x5)
	for x := (x5 & p) << 1; x != 0; x = (x & p) << 1 {
		n++
	}
	return n
}

// nonZero returns 1 when x ≠ 0 and 0 otherwise, without a branch: for
// x ≠ 0, x or −x has its top bit set.
func nonZero(x uint64) int { return int((x | -x) >> 63) }

// Truncate returns the modified sum p ⊕ (c &^ x_{cmax+1}) of the
// propagate word p and carry word c: every carry chain cut after
// traveling cmax positions.
func Truncate(p, c uint64, cmax int) uint64 {
	x := c
	for k := 0; k < cmax && x != 0; k++ {
		x = (x & p) << 1
	}
	return p ^ c&^x
}

// Cthmax returns the theoretical maximal carry-chain length of a+b for a
// width-bit adder (no carry-in): the farthest any generated carry travels.
func Cthmax(a, b uint64, width int) int {
	if width <= MaxWidth {
		_, _, _, n := Chains(a, b, width)
		return n
	}
	p, c, cout := carries(a, b, width)
	return chainLen(p>>1, c>>1|cout<<63)
}

// LimitedAdd computes the modified adder of the paper's model: the sum of
// a and b in which every carry chain is truncated after traveling cmax
// positions. cmax = width (or more) reproduces the exact sum; cmax = 0
// suppresses all carries (a XOR b). The returned word includes the carry
// out at bit position width.
func LimitedAdd(a, b uint64, width, cmax int) uint64 {
	if width < 1 || width > MaxWidth {
		panic(fmt.Sprintf("carry: width %d outside [1, %d]", width, MaxWidth))
	}
	p, c, _ := carries(a, b, width)
	return Truncate(p, c, cmax)
}

// ExactAdd returns a+b masked to width bits plus the carry out at bit
// width — the golden reference in the model's output format.
func ExactAdd(a, b uint64, width int) uint64 {
	m := mask(width)
	return (a&m + b&m) & (m | 1<<uint(width))
}
