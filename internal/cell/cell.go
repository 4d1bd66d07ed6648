// Package cell provides the standard-cell library substrate: a small,
// Liberty-like collection of combinational cells with logic functions and
// per-cell area, capacitance, delay, energy and leakage figures.
//
// The library replaces the 28nm FDSOI LVT library the paper synthesized
// against. Absolute numbers are calibrated so the synthesis reports of the
// four adders land near the paper's Table II (see DESIGN.md §2); the
// relative cell figures (XOR slower and bigger than NAND, etc.) follow
// ordinary CMOS logical-effort reasoning.
//
// Units: area µm², capacitance fF, delay ns, energy fJ, leakage nW.
package cell

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// Kind identifies a cell's logic function.
type Kind uint8

// Supported cell kinds. MAJ3 is the majority-of-three carry cell; black and
// gray prefix cells of the Brent-Kung adder are composed from AND2/OR2/AOI21
// during synthesis rather than being primitive cells.
const (
	INV Kind = iota
	BUF
	NAND2
	NOR2
	AND2
	OR2
	XOR2
	XNOR2
	AOI21 // !(a | (b & c))
	OAI21 // !(a & (b | c))
	AO21  // a | (b & c)  — the G-combine of parallel-prefix adders
	MAJ3  // (a&b) | (a&c) | (b&c)
	numKinds
)

var kindNames = [...]string{
	INV:   "INV",
	BUF:   "BUF",
	NAND2: "NAND2",
	NOR2:  "NOR2",
	AND2:  "AND2",
	OR2:   "OR2",
	XOR2:  "XOR2",
	XNOR2: "XNOR2",
	AOI21: "AOI21",
	OAI21: "OAI21",
	AO21:  "AO21",
	MAJ3:  "MAJ3",
}

// String returns the conventional library name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// NumInputs returns the number of input pins of the kind.
func (k Kind) NumInputs() int {
	switch k {
	case INV, BUF:
		return 1
	case NAND2, NOR2, AND2, OR2, XOR2, XNOR2:
		return 2
	case AOI21, OAI21, AO21, MAJ3:
		return 3
	default:
		return 0
	}
}

// Eval computes the cell's output for the given input bits. Inputs beyond
// NumInputs are ignored. Values must be 0 or 1.
func (k Kind) Eval(in []uint8) uint8 {
	switch k {
	case INV:
		return in[0] ^ 1
	case BUF:
		return in[0]
	case NAND2:
		return (in[0] & in[1]) ^ 1
	case NOR2:
		return (in[0] | in[1]) ^ 1
	case AND2:
		return in[0] & in[1]
	case OR2:
		return in[0] | in[1]
	case XOR2:
		return in[0] ^ in[1]
	case XNOR2:
		return (in[0] ^ in[1]) ^ 1
	case AOI21:
		return (in[0] | (in[1] & in[2])) ^ 1
	case OAI21:
		return (in[0] & (in[1] | in[2])) ^ 1
	case AO21:
		return in[0] | (in[1] & in[2])
	case MAJ3:
		return (in[0] & in[1]) | (in[0] & in[2]) | (in[1] & in[2])
	default:
		panic(fmt.Sprintf("cell: Eval on invalid kind %d", k))
	}
}

// EvalWord computes the cell's function bitwise over 64 independent lanes:
// bit k of each operand belongs to evaluation k, so one call performs 64
// scalar Evals. Operands beyond NumInputs are ignored. It is the primitive
// of netlist.EvaluateBatch, the bit-sliced zero-delay reference evaluator.
func (k Kind) EvalWord(a, b, c uint64) uint64 {
	switch k {
	case INV:
		return ^a
	case BUF:
		return a
	case NAND2:
		return ^(a & b)
	case NOR2:
		return ^(a | b)
	case AND2:
		return a & b
	case OR2:
		return a | b
	case XOR2:
		return a ^ b
	case XNOR2:
		return ^(a ^ b)
	case AOI21:
		return ^(a | (b & c))
	case OAI21:
		return ^(a & (b | c))
	case AO21:
		return a | (b & c)
	case MAJ3:
		return (a & b) | (a & c) | (b & c)
	default:
		panic(fmt.Sprintf("cell: EvalWord on invalid kind %d", k))
	}
}

// Cell is one library entry.
type Cell struct {
	Kind Kind
	// Area in µm².
	Area float64
	// InputCap is the capacitance (fF) presented by each input pin.
	InputCap float64
	// Intrinsic is the parasitic (zero-load) propagation delay in ns at the
	// nominal operating point.
	Intrinsic float64
	// DriveRes is the effective drive resistance in ns/fF: the slope of
	// delay versus load capacitance at the nominal operating point.
	DriveRes float64
	// InternalEnergy is the short-circuit plus internal-node switching
	// energy (fJ) dissipated inside the cell per output transition at the
	// nominal supply (load energy is accounted separately as ½CV²).
	InternalEnergy float64
	// Leakage is the static power (nW) at the nominal operating point.
	Leakage float64
}

// Delay returns the cell's nominal-corner propagation delay (ns) driving
// cloadFF femtofarads.
func (c *Cell) Delay(cloadFF float64) float64 {
	return c.Intrinsic + c.DriveRes*cloadFF
}

// Validate reports whether the cell's figures are physically sensible.
func (c *Cell) Validate() error {
	switch {
	case int(c.Kind) >= int(numKinds):
		return fmt.Errorf("cell: invalid kind %d", c.Kind)
	case c.Area <= 0:
		return fmt.Errorf("cell %s: non-positive area", c.Kind)
	case c.InputCap <= 0:
		return fmt.Errorf("cell %s: non-positive input cap", c.Kind)
	case c.Intrinsic <= 0:
		return fmt.Errorf("cell %s: non-positive intrinsic delay", c.Kind)
	case c.DriveRes <= 0:
		return fmt.Errorf("cell %s: non-positive drive resistance", c.Kind)
	case c.InternalEnergy < 0:
		return fmt.Errorf("cell %s: negative internal energy", c.Kind)
	case c.Leakage < 0:
		return fmt.Errorf("cell %s: negative leakage", c.Kind)
	}
	return nil
}

// Library is a consistent set of cells plus global interconnect constants.
// Use it through a pointer: the fingerprint memo makes value copies
// unsafe (and nothing in the tree copies one).
type Library struct {
	Name string
	// WireCap is the fixed wire capacitance (fF) added to every net.
	WireCap float64
	// WireCapPerFanout is additional wire capacitance (fF) per fanout pin,
	// modeling longer routes for higher-fanout nets.
	WireCapPerFanout float64
	cells            [numKinds]*Cell
	// fp memoizes Fingerprint — it sits on every characterization cache
	// key, so the content hash is recomputed only after a mutation.
	// Invalidated by Add; the exported fields are construction-time
	// constants everywhere in the tree.
	fp atomic.Pointer[string]
	// frozen marks a library shared read-only (see Freeze).
	frozen bool
}

// Cell returns the library entry for kind k, or nil if absent.
func (l *Library) Cell(k Kind) *Cell {
	if int(k) >= int(numKinds) {
		return nil
	}
	return l.cells[k]
}

// MustCell returns the entry for k and panics if the library lacks it.
func (l *Library) MustCell(k Kind) *Cell {
	c := l.Cell(k)
	if c == nil {
		panic(fmt.Sprintf("cell: library %q has no %s", l.Name, k))
	}
	return c
}

// Add inserts (or replaces) a cell in the library. It panics on a
// frozen library: only a bug can reach that.
func (l *Library) Add(c *Cell) {
	if l.frozen {
		panic(fmt.Sprintf("cell: Add on frozen library %q", l.Name))
	}
	l.cells[c.Kind] = c
	l.fp.Store(nil)
}

// Freeze makes the library read-only, so Add panics, and returns it. A
// frozen library can be shared by every caller that only reads it, and
// its fingerprint is then hashed once for all of them.
func (l *Library) Freeze() *Library {
	l.frozen = true
	return l
}

// Kinds returns the kinds present in the library in ascending order.
func (l *Library) Kinds() []Kind {
	var ks []Kind
	for k := Kind(0); k < numKinds; k++ {
		if l.cells[k] != nil {
			ks = append(ks, k)
		}
	}
	return ks
}

// Fingerprint returns a stable content hash of the library: its name,
// interconnect constants and every cell figure. Two libraries with equal
// fingerprints produce identical timing, energy and synthesis results, so
// the fingerprint is safe to use as the library component of a
// characterization cache key. The hash is memoized — it is consulted on
// every cache probe of every operating point — and recomputed only
// after an Add; racing first callers at worst hash twice.
func (l *Library) Fingerprint() string {
	if fp := l.fp.Load(); fp != nil {
		return *fp
	}
	var b strings.Builder
	fmt.Fprintf(&b, "lib %s wire=%g fanout=%g\n", l.Name, l.WireCap, l.WireCapPerFanout)
	for _, k := range l.Kinds() {
		c := l.cells[k]
		fmt.Fprintf(&b, "%s area=%g cin=%g tint=%g rdrv=%g eint=%g leak=%g\n",
			k, c.Area, c.InputCap, c.Intrinsic, c.DriveRes, c.InternalEnergy, c.Leakage)
	}
	sum := sha256.Sum256([]byte(b.String()))
	fp := hex.EncodeToString(sum[:])
	l.fp.Store(&fp)
	return fp
}

// Validate checks every cell and the interconnect constants.
func (l *Library) Validate() error {
	if l.WireCap < 0 || l.WireCapPerFanout < 0 {
		return errors.New("cell: negative wire capacitance")
	}
	any := false
	for k := Kind(0); k < numKinds; k++ {
		c := l.cells[k]
		if c == nil {
			continue
		}
		any = true
		if c.Kind != k {
			return fmt.Errorf("cell: entry at slot %s has kind %s", k, c.Kind)
		}
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if !any {
		return errors.New("cell: empty library")
	}
	return nil
}

// NetLoad returns the capacitive load (fF) seen by a driver whose output net
// feeds the given fanout input capacitances.
func (l *Library) NetLoad(fanoutCaps []float64) float64 {
	load := l.WireCap + l.WireCapPerFanout*float64(len(fanoutCaps))
	for _, c := range fanoutCaps {
		load += c
	}
	return load
}
