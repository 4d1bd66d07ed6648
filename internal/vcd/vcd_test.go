package vcd_test

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/vcd"
)

// parseVCD is a minimal VCD reader for the tests: returns id→name from the
// header and the ordered list of (time, id, value) changes.
type change struct {
	t  int64
	id string
	v  uint8
}

func parseVCD(t *testing.T, data string) (map[string]string, []change) {
	t.Helper()
	names := map[string]string{}
	var changes []change
	var now int64
	inHeader := true
	sc := bufio.NewScanner(strings.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, "$var"):
			// $var wire 1 <id> <name> $end
			f := strings.Fields(line)
			if len(f) < 6 {
				t.Fatalf("bad var line %q", line)
			}
			if _, dup := names[f[3]]; dup {
				t.Fatalf("duplicate id %q", f[3])
			}
			names[f[3]] = f[4]
		case strings.HasPrefix(line, "$enddefinitions"):
			inHeader = false
		case strings.HasPrefix(line, "$"):
			// other directives ignored
		case line[0] == '#':
			tv, err := strconv.ParseInt(line[1:], 10, 64)
			if err != nil {
				t.Fatalf("bad time %q", line)
			}
			if tv < now {
				t.Fatalf("time went backwards: %d after %d", tv, now)
			}
			now = tv
		case line[0] == '0' || line[0] == '1':
			if inHeader {
				t.Fatalf("change before definitions end: %q", line)
			}
			changes = append(changes, change{t: now, id: line[1:], v: line[0] - '0'})
		default:
			t.Fatalf("unparsed line %q", line)
		}
	}
	return names, changes
}

func TestVCDFromSimulation(t *testing.T) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	nl, err := synth.RCA(synth.AdderConfig{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(nl, lib, proc, proc.Nominal())
	stim := netlist.CompileStimulus(nl)
	if err := eng.ResetDense(stim.Values()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	w := vcd.NewWriter(&buf, nl)
	w.DumpInitial(make([]uint8, nl.NumNets()))
	eng.SetTracer(w.Change)

	stim.MustSet(synth.PortA, 0xF)
	stim.MustSet(synth.PortB, 0x1)
	if _, err := eng.StepDense(stim.Values(), 0.5); err != nil {
		t.Fatal(err)
	}
	w.Marker(0.5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	names, changes := parseVCD(t, buf.String())
	if len(names) != nl.NumNets() {
		t.Fatalf("header declares %d nets, want %d", len(names), nl.NumNets())
	}
	if len(changes) == 0 {
		t.Fatal("no changes recorded")
	}
	// The carry chain of 0xF + 0x1 must produce changes at strictly
	// positive times (gate delays), and input changes at t=0.
	sawZero, sawLate := false, false
	for _, c := range changes {
		if c.t == 0 {
			sawZero = true
		}
		if c.t > 0 {
			sawLate = true
		}
	}
	if !sawZero || !sawLate {
		t.Fatalf("expected both t=0 input edges and delayed gate edges (zero=%v late=%v)",
			sawZero, sawLate)
	}
	// Final state reconstruction: replaying changes over the initial dump
	// must yield the settled sum 0x0 with cout 1 (0xF + 0x1 = 0x10).
	state := map[string]uint8{}
	for id := range names {
		state[id] = 0
	}
	for _, c := range changes {
		state[c.id] = c.v
	}
	// Build name → id reverse map to look up ports.
	byName := map[string]string{}
	for id, name := range names {
		byName[name] = id
	}
	sumPort, _ := nl.OutputPort(synth.PortSum)
	for i := range sumPort.Bits {
		id := byName["s["+strconv.Itoa(i)+"]"]
		if id == "" {
			t.Fatalf("sum bit %d missing from header", i)
		}
		if state[id] != 0 {
			t.Fatalf("replayed s[%d] = %d, want 0", i, state[id])
		}
	}
	coutID := byName["cout[0]"]
	if state[coutID] != 1 {
		t.Fatal("replayed cout != 1")
	}
}

func TestVCDGlitchesVisibleUnderVOS(t *testing.T) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	nl, err := synth.RCA(synth.AdderConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 0.6})
	stim := netlist.CompileStimulus(nl)
	if err := eng.ResetDense(stim.Values()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := vcd.NewWriter(&buf, nl)
	w.DumpInitial(make([]uint8, nl.NumNets()))
	eng.SetTracer(w.Change)
	stim.MustSet(synth.PortA, 0xFF)
	stim.MustSet(synth.PortB, 0x01)
	if _, err := eng.StepDense(stim.Values(), 0.269); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, changes := parseVCD(t, buf.String())
	// A full carry ripple at low voltage: expect a long chain of
	// post-capture (>269ps) events — the timing violation made visible.
	late := 0
	for _, c := range changes {
		if c.t > 269 {
			late++
		}
	}
	if late < 4 {
		t.Fatalf("expected several post-capture transitions, saw %d", late)
	}
}

func TestIDCodesUnique(t *testing.T) {
	// Large netlist: identifiers must stay unique past the 94-char
	// single-character space.
	b := netlist.NewBuilder("wide")
	in := b.InputBus("x", 2)
	var outs []netlist.NetID
	prev := in[0]
	for i := 0; i < 200; i++ {
		prev = b.Gate(cell.INV, prev)
		outs = append(outs, prev)
	}
	b.OutputBus("o", outs[len(outs)-1:])
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := vcd.NewWriter(&buf, nl)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := parseVCD(t, buf.String())
	if len(names) != nl.NumNets() {
		t.Fatalf("ids not unique: %d declared for %d nets", len(names), nl.NumNets())
	}
}

func TestTimeMonotonicityEnforced(t *testing.T) {
	b := netlist.NewBuilder("tiny")
	a := b.InputBus("a", 1)
	o := b.Gate(cell.INV, a[0])
	b.OutputBus("o", []netlist.NetID{o})
	nl := b.MustBuild()
	var buf bytes.Buffer
	w := vcd.NewWriter(&buf, nl)
	w.Change(1.0, a[0], 1)
	w.Change(0.5, a[0], 0) // backwards
	if err := w.Close(); err == nil {
		t.Fatal("backwards time accepted")
	}
}
