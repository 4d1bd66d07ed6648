package vos

import (
	"fmt"
	"math"
	"time"

	"repro/internal/triad"
)

// Sweep lifecycle states, as reported by Result.Status and Event.Status.
const (
	StatusPending  = "pending"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Triad is one operating point: capture clock period (ns), supply voltage
// (V) and symmetric forward-body-bias magnitude (V).
type Triad struct {
	Tclk float64 `json:"tclk"`
	Vdd  float64 `json:"vdd"`
	Vbb  float64 `json:"vbb"`
}

// Label formats the triad the way the paper's Fig. 8 x-axes do:
// "Tclk,Vdd,Vbb" with "±2" for the symmetric body bias.
func (t Triad) Label() string { return triad.Triad(t).Label() }

// Report mirrors the synthesis report of one operator — the columns of
// the paper's Table II plus the timing the triads derive from.
type Report struct {
	Name      string
	GateCount int
	// Area is the total cell area (µm²).
	Area float64
	// CriticalPath is the margined critical path (ns) the triads derive
	// from; TrueCriticalPath is the raw STA longest path.
	CriticalPath     float64
	TrueCriticalPath float64
	// TotalPower, DynamicPower, LeakagePower are µW at the nominal point.
	TotalPower   float64
	DynamicPower float64
	LeakagePower float64
	// EnergyPerOp is the nominal per-operation energy (fJ).
	EnergyPerOp float64
}

// ErrorStats is the raw captured-vs-exact counter set of one point,
// sufficient to recompute every derived metric.
type ErrorStats struct {
	Width       int      `json:"width"`
	Words       uint64   `json:"words"`
	FaultyBits  uint64   `json:"faultyBits"`
	FaultyWords uint64   `json:"faultyWords"`
	PerBit      []uint64 `json:"perBit"`
	SumSqErr    float64  `json:"sumSqErr"`
	SumSqSig    float64  `json:"sumSqSig"`
	Hamming     uint64   `json:"hamming"`
	Weighted    float64  `json:"weighted"`
}

// Point is one characterized operating point of an operator.
type Point struct {
	Triad Triad      `json:"triad"`
	Stats ErrorStats `json:"stats"`
	// BER and WER are the bit and word error rates; PerBit is the
	// per-output-bit error probability, LSB first, carry-out last.
	BER    float64   `json:"ber"`
	WER    float64   `json:"wer"`
	PerBit []float64 `json:"perBit"`
	// EnergyPerOpFJ is the mean per-operation energy; Efficiency is the
	// saving relative to the operator's nominal point.
	EnergyPerOpFJ float64 `json:"energyPerOpFJ"`
	// LateFraction is the fraction of operations with activity after the
	// capture edge.
	LateFraction float64 `json:"lateFraction"`
	Efficiency   float64 `json:"efficiency"`
	// FromCache records whether the point was served from the engine's
	// result cache rather than simulated.
	FromCache bool `json:"fromCache"`
	// Fidelity is present only on BackendModel points: the trained error
	// model's cross-validation report against the gate-level oracle. For
	// those points LateFraction carries the oracle's word-error fraction
	// over the calibration patterns.
	Fidelity *Fidelity `json:"fidelity,omitempty"`
}

// Operator is one architecture × width of a sweep result.
type Operator struct {
	// Bench names the operator the way the paper does ("8-bit RCA").
	Bench  string  `json:"bench"`
	Arch   string  `json:"arch"`
	Width  int     `json:"width"`
	Report *Report `json:"report"`
	// Points are the characterized operating points in plan order; under
	// PolicyPaper the first point is the nominal triad.
	Points []Point `json:"points"`
	// SortedIdx orders Points the way the paper's Fig. 8 x-axis does
	// (ascending BER, ties by energy).
	SortedIdx []int `json:"sortedIdx"`
}

// Progress is a sweep's completion counter set; Completed splits into
// CacheHits and Executed by how each point was served.
type Progress struct {
	TotalPoints int `json:"totalPoints"`
	Completed   int `json:"completed"`
	CacheHits   int `json:"cacheHits"`
	Executed    int `json:"executed"`
}

// Result is a sweep snapshot: identity, lifecycle state and — once the
// sweep is done and fetched through Client.Results or Client.Run — the
// per-operator results.
type Result struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`

	Progress  Progress   `json:"progress"`
	Operators []Operator `json:"results,omitempty"`
}

func (r Result) jobStatus() string { return r.Status }

// Operator returns the result's operator for an architecture and width,
// or nil if the sweep did not include it.
func (r *Result) Operator(arch string, width int) *Operator {
	for i := range r.Operators {
		if r.Operators[i].Arch == arch && r.Operators[i].Width == width {
			return &r.Operators[i]
		}
	}
	return nil
}

// Nominal returns the operator's nominal (first) point, or nil if the
// operator has no points.
func (op *Operator) Nominal() *Point {
	if len(op.Points) == 0 {
		return nil
	}
	return &op.Points[0]
}

// Fig8 projects the operator onto the paper's Fig. 8: its points in
// x-axis order (ascending BER, ties by ascending energy).
func (op *Operator) Fig8() []Point {
	out := make([]Point, 0, len(op.Points))
	for _, i := range op.SortedIdx {
		out = append(out, op.Points[i])
	}
	if len(out) == 0 { // no precomputed order (e.g. hand-built Operator)
		out = append(out, op.Points...)
	}
	return out
}

// Fig5Point is one curve of the paper's Fig. 5: the per-output-bit error
// probability at one supply voltage.
type Fig5Point struct {
	Vdd    float64
	PerBit []float64 // LSB..MSB, including carry-out
	BER    float64
}

// Fig5 projects the operator onto the paper's Fig. 5: one entry per
// zero-body-bias point, in point order. Meaningful for PolicyVddGrid
// sweeps, where every point runs at the synthesis clock.
func (op *Operator) Fig5() []Fig5Point {
	var out []Fig5Point
	for _, p := range op.Points {
		if p.Triad.Vbb != 0 {
			continue
		}
		out = append(out, Fig5Point{Vdd: p.Triad.Vdd, PerBit: p.PerBit, BER: p.BER})
	}
	return out
}

// Band is a BER range of Table IV in rounded percent (inclusive bounds).
type Band struct{ Lo, Hi int }

// String formats the band the way the paper's Table IV row labels do.
func (b Band) String() string {
	if b.Lo == b.Hi {
		return fmt.Sprintf("%d%%", b.Lo)
	}
	return fmt.Sprintf("%d%% to %d%%", b.Lo, b.Hi)
}

// Table4Bands are the paper's BER ranges.
var Table4Bands = []Band{{0, 0}, {1, 10}, {11, 20}, {21, 25}}

// BandSummary is one cell group of Table IV for one operator.
type BandSummary struct {
	Band  Band
	Count int
	// MaxEff is the best energy efficiency (fraction) among the band's
	// points; BERAtMaxEff is that point's BER; Best is its triad. Valid
	// only when Count > 0.
	MaxEff      float64
	BERAtMaxEff float64
	Best        Triad
}

// Table4 projects the operator onto the paper's Table IV: its points
// binned into BER bands by rounding to whole percent, with the best
// energy efficiency per band.
func (op *Operator) Table4() []BandSummary {
	out := make([]BandSummary, len(Table4Bands))
	for i, b := range Table4Bands {
		out[i].Band = b
	}
	for _, p := range op.Points {
		pct := int(math.Round(p.BER * 100))
		for i, b := range Table4Bands {
			if pct < b.Lo || pct > b.Hi {
				continue
			}
			s := &out[i]
			s.Count++
			if s.Count == 1 || p.Efficiency > s.MaxEff {
				s.MaxEff = p.Efficiency
				s.BERAtMaxEff = p.BER
				s.Best = p.Triad
			}
		}
	}
	return out
}

// TriadClocks returns the four Table III clock periods (ns) the paper's
// methodology derives for this operator from its synthesis report,
// relaxed first.
func (op *Operator) TriadClocks() [4]float64 {
	return triad.PaperClockRatios(op.Arch, op.Width).Clocks(op.Report.CriticalPath)
}
