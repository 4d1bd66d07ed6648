package cell

import (
	"math"
	"testing"
)

// truth checks a kind against a reference function over all input
// combinations.
func truth(t *testing.T, k Kind, ref func(in []uint8) uint8) {
	t.Helper()
	n := k.NumInputs()
	in := make([]uint8, n)
	for v := 0; v < 1<<n; v++ {
		for i := 0; i < n; i++ {
			in[i] = uint8(v>>i) & 1
		}
		got, want := k.Eval(in), ref(in)
		if got != want {
			t.Fatalf("%s%v = %d, want %d", k, in, got, want)
		}
		if got > 1 {
			t.Fatalf("%s produced non-boolean %d", k, got)
		}
	}
}

func TestTruthTables(t *testing.T) {
	truth(t, INV, func(in []uint8) uint8 { return 1 - in[0] })
	truth(t, BUF, func(in []uint8) uint8 { return in[0] })
	truth(t, NAND2, func(in []uint8) uint8 { return 1 - in[0]*in[1] })
	truth(t, NOR2, func(in []uint8) uint8 {
		if in[0]+in[1] > 0 {
			return 0
		}
		return 1
	})
	truth(t, AND2, func(in []uint8) uint8 { return in[0] * in[1] })
	truth(t, OR2, func(in []uint8) uint8 {
		if in[0]+in[1] > 0 {
			return 1
		}
		return 0
	})
	truth(t, XOR2, func(in []uint8) uint8 { return in[0] ^ in[1] })
	truth(t, XNOR2, func(in []uint8) uint8 { return 1 - in[0] ^ in[1] })
	truth(t, AOI21, func(in []uint8) uint8 {
		if in[0] == 1 || (in[1] == 1 && in[2] == 1) {
			return 0
		}
		return 1
	})
	truth(t, OAI21, func(in []uint8) uint8 {
		if in[0] == 1 && (in[1] == 1 || in[2] == 1) {
			return 0
		}
		return 1
	})
	truth(t, AO21, func(in []uint8) uint8 {
		if in[0] == 1 || (in[1] == 1 && in[2] == 1) {
			return 1
		}
		return 0
	})
	truth(t, MAJ3, func(in []uint8) uint8 {
		if int(in[0])+int(in[1])+int(in[2]) >= 2 {
			return 1
		}
		return 0
	})
}

func TestNumInputs(t *testing.T) {
	want := map[Kind]int{
		INV: 1, BUF: 1,
		NAND2: 2, NOR2: 2, AND2: 2, OR2: 2, XOR2: 2, XNOR2: 2,
		AOI21: 3, OAI21: 3, AO21: 3, MAJ3: 3,
	}
	for k, n := range want {
		if got := k.NumInputs(); got != n {
			t.Errorf("%s.NumInputs() = %d, want %d", k, got, n)
		}
	}
}

func TestKindString(t *testing.T) {
	if MAJ3.String() != "MAJ3" {
		t.Fatalf("MAJ3.String() = %q", MAJ3.String())
	}
	if s := Kind(200).String(); s != "Kind(200)" {
		t.Fatalf("invalid kind String() = %q", s)
	}
}

func TestDefaultLibraryValidates(t *testing.T) {
	lib := Default28nmLVT()
	if err := lib.Validate(); err != nil {
		t.Fatalf("default library invalid: %v", err)
	}
	// Every kind used by the generators must be present.
	for _, k := range []Kind{INV, BUF, NAND2, NOR2, AND2, OR2, XOR2, XNOR2, AOI21, OAI21, AO21, MAJ3} {
		if lib.Cell(k) == nil {
			t.Errorf("library missing %s", k)
		}
	}
}

func TestLibraryRelativeFigures(t *testing.T) {
	lib := Default28nmLVT()
	xor, nand, maj := lib.MustCell(XOR2), lib.MustCell(NAND2), lib.MustCell(MAJ3)
	if xor.Area <= nand.Area {
		t.Error("XOR2 should be larger than NAND2")
	}
	if xor.Intrinsic <= nand.Intrinsic {
		t.Error("XOR2 should be slower than NAND2")
	}
	if maj.Area <= nand.Area {
		t.Error("MAJ3 should be larger than NAND2")
	}
}

func TestDelayIncreasesWithLoad(t *testing.T) {
	c := Default28nmLVT().MustCell(XOR2)
	if c.Delay(1) >= c.Delay(5) {
		t.Fatal("delay must grow with load")
	}
	if c.Delay(0) != c.Intrinsic {
		t.Fatal("zero-load delay must equal intrinsic delay")
	}
}

func TestNetLoad(t *testing.T) {
	lib := Default28nmLVT()
	got := lib.NetLoad([]float64{1.0, 2.0})
	want := lib.WireCap + 2*lib.WireCapPerFanout + 3.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("NetLoad = %v, want %v", got, want)
	}
	if got := lib.NetLoad(nil); got != lib.WireCap {
		t.Fatalf("unloaded NetLoad = %v, want WireCap", got)
	}
}

func TestCellValidate(t *testing.T) {
	good := Cell{Kind: INV, Area: 1, InputCap: 1, Intrinsic: 1, DriveRes: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good cell rejected: %v", err)
	}
	cases := []Cell{
		{Kind: numKinds, Area: 1, InputCap: 1, Intrinsic: 1, DriveRes: 1},
		{Kind: INV, Area: 0, InputCap: 1, Intrinsic: 1, DriveRes: 1},
		{Kind: INV, Area: 1, InputCap: 0, Intrinsic: 1, DriveRes: 1},
		{Kind: INV, Area: 1, InputCap: 1, Intrinsic: 0, DriveRes: 1},
		{Kind: INV, Area: 1, InputCap: 1, Intrinsic: 1, DriveRes: 0},
		{Kind: INV, Area: 1, InputCap: 1, Intrinsic: 1, DriveRes: 1, InternalEnergy: -1},
		{Kind: INV, Area: 1, InputCap: 1, Intrinsic: 1, DriveRes: 1, Leakage: -1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad cell accepted", i)
		}
	}
}

func TestLibraryValidateCatchesProblems(t *testing.T) {
	var empty Library
	if err := empty.Validate(); err == nil {
		t.Error("empty library accepted")
	}
	lib := Default28nmLVT()
	lib.WireCap = -1
	if err := lib.Validate(); err == nil {
		t.Error("negative wire cap accepted")
	}
}

func TestKindsEnumeration(t *testing.T) {
	lib := Default28nmLVT()
	ks := lib.Kinds()
	if len(ks) != 12 {
		t.Fatalf("Kinds() returned %d entries, want 12", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatal("Kinds() not strictly ascending")
		}
	}
}

func TestMustCellPanicsOnMissing(t *testing.T) {
	var lib Library
	lib.Name = "empty"
	defer func() {
		if recover() == nil {
			t.Fatal("MustCell on empty library did not panic")
		}
	}()
	lib.MustCell(XOR2)
}

// TestFrozenLibraryRefusesAdd: Add panics on a frozen library, while
// Default28nmLVT keeps handing out fresh, mutable ones.
func TestFrozenLibraryRefusesAdd(t *testing.T) {
	lib := Default28nmLVT()
	fp := lib.Fingerprint()
	if lib.Freeze() != lib {
		t.Fatal("Freeze returned another library")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Add on a frozen library did not panic")
			}
		}()
		lib.Add(&Cell{Kind: INV, Area: 9})
	}()
	if lib.Fingerprint() != fp || lib.MustCell(INV).Area == 9 {
		t.Fatal("the refused Add changed the frozen library")
	}
	fresh := Default28nmLVT()
	fresh.Add(&Cell{Kind: INV, Area: 9})
	if fresh.MustCell(INV).Area != 9 || fresh.Fingerprint() == fp {
		t.Fatal("a fresh default library is not mutable")
	}
}
