package core

import (
	"fmt"

	"repro/internal/carry"
	"repro/internal/patterns"
)

// HardwareAdder is the faulty-operator oracle the trainer characterizes:
// typically a timing-simulator engine at one operating triad (see
// charz.EngineAdder), but any implementation works — including real
// silicon measurements. Add returns the full captured output word: sum in
// the low Width bits, carry-out at bit Width.
type HardwareAdder interface {
	Width() int
	Add(a, b uint64) uint64
}

// Train runs the paper's Algorithm 1: for every training pair it asks the
// hardware for its (possibly faulty) output, scans candidate carry limits
// C from the pair's Cthmax down to 0, keeps the C whose modified-adder
// output minimizes the metric distance (ties resolve to the smallest C,
// exactly as the algorithm's `dist <= max_dist` update does), and
// histograms the winner into P(C | Cthmax). Columns that never occur fall
// back to exact behaviour (diagonal 1).
func Train(hw HardwareAdder, gen patterns.Generator, n int, metric Metric) (*ProbTable, error) {
	samples, err := CollectSamples(hw, gen, n)
	if err != nil {
		return nil, err
	}
	return TrainFromSamples(samples, hw.Width(), metric)
}

// Model couples a trained probability table with the width and metric it
// was trained under; this is the serializable artifact the algorithmic
// level consumes.
type Model struct {
	// Width is the adder operand width.
	Width int `json:"width"`
	// Metric is the calibration metric used during training.
	Metric Metric `json:"metric"`
	// Label optionally records the operating triad the model imitates.
	Label string `json:"label,omitempty"`
	// Table is the carry-propagation probability table.
	Table *ProbTable `json:"table"`
}

// TrainModel is Train plus packaging.
func TrainModel(hw HardwareAdder, gen patterns.Generator, n int, metric Metric, label string) (*Model, error) {
	table, err := Train(hw, gen, n, metric)
	if err != nil {
		return nil, err
	}
	return &Model{Width: hw.Width(), Metric: metric, Label: label, Table: table}, nil
}

// Validate checks the model invariants.
func (m *Model) Validate() error {
	if m.Width < 1 || m.Width > carry.MaxWidth {
		return fmt.Errorf("core: model width %d outside [1, %d]", m.Width, carry.MaxWidth)
	}
	if m.Metric >= numMetrics {
		return fmt.Errorf("core: model metric %d unknown", m.Metric)
	}
	if m.Table == nil {
		return fmt.Errorf("core: model has no table")
	}
	if m.Table.N != m.Width {
		return fmt.Errorf("core: table N %d != width %d", m.Table.N, m.Width)
	}
	return m.Table.Validate()
}
