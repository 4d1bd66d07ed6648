package netfmt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fdsoi"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/netfmt -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

func writeString(t *testing.T, nl *netlist.Netlist) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, nl); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRoundTripAllArches(t *testing.T) {
	mm := fdsoi.NewMismatchSampler(0.01, 3)
	for _, arch := range synth.Arches() {
		nl, err := synth.NewAdder(arch, synth.AdderConfig{Width: 8, Mismatch: mm})
		if err != nil {
			t.Fatal(err)
		}
		text := writeString(t, nl)
		back, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: parse: %v", arch, err)
		}
		// Canonical: re-writing reproduces the text exactly.
		if text2 := writeString(t, back); text2 != text {
			t.Fatalf("%s: round trip not canonical", arch)
		}
		// Structure preserved.
		if back.NumGates() != nl.NumGates() || back.NumNets() != nl.NumNets() {
			t.Fatalf("%s: structure changed", arch)
		}
		for gi := range nl.Gates {
			if nl.Gates[gi].VtOffset != back.Gates[gi].VtOffset {
				t.Fatalf("%s: vt offset lost at gate %d", arch, gi)
			}
			if nl.Gates[gi].Kind != back.Gates[gi].Kind {
				t.Fatalf("%s: kind changed at gate %d", arch, gi)
			}
		}
	}
}

func TestRoundTripFunctionalEquivalence(t *testing.T) {
	nl, err := synth.BKA(synth.AdderConfig{Width: 12})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(writeString(t, nl)))
	if err != nil {
		t.Fatal(err)
	}
	st := netlist.CompileStimulus(back)
	ps, _ := back.OutputPort(synth.PortSum)
	pc, _ := back.OutputPort(synth.PortCout)
	f := func(x, y uint16) bool {
		a, b := uint64(x)&0xfff, uint64(y)&0xfff
		st.MustSet(synth.PortA, a)
		st.MustSet(synth.PortB, b)
		vals := st.Values()
		if err := back.EvaluateInto(vals); err != nil {
			return false
		}
		s := netlist.PortValue(ps, vals)
		co := netlist.PortValue(pc, vals)
		return s|co<<12 == a+b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"missing end", "netlist x\nnets 2\ninput a n0 n1\noutput o n0\n"},
		{"no netlist", "nets 2\nend\n"},
		{"dup netlist", "netlist a\nnetlist b\nend\n"},
		{"bad count", "netlist a\nnets zero\nend\n"},
		{"dup nets", "netlist a\nnets 1\nnets 1\nend\n"},
		{"unknown kind", "netlist a\nnets 2\ninput i n0\ngate FROB n1 n0\noutput o n1\nend\n"},
		{"bad arity", "netlist a\nnets 3\ninput i n0 n1\ngate INV n2 n0 n1\noutput o n2\nend\n"},
		{"bad ref", "netlist a\nnets 2\ninput i n0\ngate INV n9 n0\noutput o n1\nend\n"},
		{"bad ref syntax", "netlist a\nnets 2\ninput i x0\noutput o n1\nend\n"},
		{"content after end", "netlist a\nnets 2\ninput i n0\ngate INV n1 n0\noutput o n1\nend\nnets 1\n"},
		{"bad vt", "netlist a\nnets 2\ninput i n0\ngate INV n1 n0 vt=zz\noutput o n1\nend\n"},
		{"input before nets", "netlist a\ninput i n0\nend\n"},
		{"undriven output", "netlist a\nnets 3\ninput i n0\ngate INV n1 n0\noutput o n2\nend\n"},
		{"double drive", "netlist a\nnets 2\ninput i n0\ngate INV n1 n0\ngate BUF n1 n0\noutput o n1\nend\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.text)); err == nil {
				t.Fatalf("accepted:\n%s", tc.text)
			}
		})
	}
}

func TestParseMinimal(t *testing.T) {
	text := `# comment
netlist tiny
nets 3
input a n0 n1
gate NAND2 n2 n0 n1 vt=0.002
output y n2
end
`
	nl, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if nl.Name != "tiny" || nl.NumGates() != 1 || nl.NumNets() != 3 {
		t.Fatalf("parsed wrong structure: %s", nl)
	}
	if nl.Gates[0].VtOffset != 0.002 {
		t.Fatalf("vt = %v", nl.Gates[0].VtOffset)
	}
	// Input nets renamed to bus convention.
	if nl.Nets[0].Name != "a[0]" || nl.Nets[1].Name != "a[1]" {
		t.Fatalf("input net names: %q, %q", nl.Nets[0].Name, nl.Nets[1].Name)
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	text := "netlist a\nnets 2\ninput i n0\nbogus statement\nend\n"
	_, err := Parse(strings.NewReader(text))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 4 {
		t.Fatalf("line = %d, want 4", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 4") {
		t.Fatalf("message %q", pe.Error())
	}
}

func TestFromPartsValidation(t *testing.T) {
	// Mis-numbered nets must be rejected.
	_, err := netlist.FromParts("x",
		[]netlist.Net{{ID: 5, Name: "n0"}},
		nil, nil, nil)
	if err == nil {
		t.Fatal("bad net IDs accepted")
	}
	_, err = netlist.FromParts("x",
		[]netlist.Net{{ID: 0, Name: "n0"}, {ID: 1, Name: "n1"}},
		[]netlist.Gate{{ID: 3}},
		nil, nil)
	if err == nil {
		t.Fatal("bad gate IDs accepted")
	}
}

func TestGoldenFile(t *testing.T) {
	// The canonical serialization of the 4-bit RCA is pinned as a golden
	// file: any format or generator change that alters it must be
	// deliberate (regenerate with go test ./internal/netfmt -update).
	golden := filepath.Join("testdata", "rca4.golden.vnet")
	nl, err := synth.RCA(synth.AdderConfig{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, nl); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Fatalf("canonical form drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s",
			buf.String(), want)
	}
	// And the golden file itself parses back to a working adder.
	parsed, err := Parse(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	st := netlist.CompileStimulus(parsed)
	ps, _ := parsed.OutputPort(synth.PortSum)
	pc, _ := parsed.OutputPort(synth.PortCout)
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			st.MustSet(synth.PortA, a)
			st.MustSet(synth.PortB, b)
			vals := st.Values()
			if err := parsed.EvaluateInto(vals); err != nil {
				t.Fatal(err)
			}
			got := netlist.PortValue(ps, vals) | netlist.PortValue(pc, vals)<<4
			if got != a+b {
				t.Fatalf("golden rca4(%d,%d) = %d", a, b, got)
			}
		}
	}
}
