package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/vos"
)

// pointFacts is the part of a sweep point the output checks compare:
// the operating point, its raw error counters, its energy and its late
// fraction. FromCache and the derived rates are left out — the first
// differs by design between a cold and a warm fetch, the second are
// functions of the counters.
type pointFacts struct {
	Triad         vos.Triad      `json:"triad"`
	Stats         vos.ErrorStats `json:"stats"`
	EnergyPerOpFJ float64        `json:"energyPerOpFJ"`
	LateFraction  float64        `json:"lateFraction"`
}

func pointJSON(p vos.Point) string {
	data, err := json.Marshal(pointFacts{Triad: p.Triad, Stats: p.Stats, EnergyPerOpFJ: p.EnergyPerOpFJ, LateFraction: p.LateFraction})
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	return string(data)
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sweepDigest hashes every point of a sweep result in operator and
// point order.
func sweepDigest(r *vos.Result) string {
	var parts []string
	for _, op := range r.Operators {
		parts = append(parts, fmt.Sprintf("%s %d %d", op.Arch, op.Width, len(op.Points)))
		for _, p := range op.Points {
			parts = append(parts, pointJSON(p))
		}
	}
	return digest(parts...)
}

// mcDigest hashes a Monte Carlo result's points: everything but the
// job's id, status and timestamps.
func mcDigest(r *vos.MCResult) (string, error) {
	data, err := json.Marshal(r.Points)
	if err != nil {
		return "", err
	}
	return digest(string(data)), nil
}

// digestBook checks that every result of a spec hashes to the first
// digest seen for that spec in the run and, when a committed golden
// table is loaded, to the committed digest too.
type digestBook struct {
	mu     sync.Mutex
	seen   map[string]string
	golden map[string]string
}

func newDigestBook(golden map[string]string) *digestBook {
	return &digestBook{seen: make(map[string]string), golden: golden}
}

func (b *digestBook) check(key, got string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.golden != nil {
		want, ok := b.golden[key]
		if !ok {
			return fmt.Errorf("check: no committed digest for %s", key)
		}
		if got != want {
			return fmt.Errorf("check: %s digest %.12s differs from the committed %.12s", key, got, want)
		}
	}
	first, ok := b.seen[key]
	if !ok {
		b.seen[key] = got
		return nil
	}
	if got != first {
		return fmt.Errorf("check: %s digest %.12s differs from the run's first %.12s", key, got, first)
	}
	return nil
}

// goldenPath is the committed fig8_cold digest table, relative to the
// repository root the benchmark runs from.
const goldenPath = "perfbench/golden/fig8_cold_seed1.json"

func loadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
