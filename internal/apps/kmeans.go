package apps

import (
	"math"
	"math/rand/v2"
)

// KMeans is a 1-D k-means clusterer whose distance accumulations run
// through the approximate adder — the "machine learning" class of
// error-resilient workloads the paper's introduction cites. Points and
// centroids are unsigned 8-bit values; distances are |x−c| computed with
// adder-based subtraction/absolute value, and centroid updates accumulate
// through SumTree.
type KMeans struct {
	K     int
	Iters int
}

// Clusters runs Lloyd's algorithm and returns the final centroids and the
// per-point assignment.
func (km KMeans) Clusters(points []uint64, ar *Arith, seed uint64) (centroids []uint64, assign []int) {
	if km.K < 1 || len(points) == 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewPCG(seed, 0x12ea5))
	centroids = make([]uint64, km.K)
	for i := range centroids {
		centroids[i] = points[rng.IntN(len(points))]
	}
	assign = make([]int, len(points))
	members := make([]uint64, 0, len(points))
	for iter := 0; iter < km.Iters; iter++ {
		// Assign: nearest centroid under adder-based |x−c|.
		for i, p := range points {
			best, bestD := 0, uint64(math.MaxUint64)
			for c, cent := range centroids {
				d := ar.Abs(ar.Sub(p, cent))
				if d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
		}
		// Update: centroid = mean of members (sum via adder tree; the
		// division is a scalar op, as it would be on a host CPU).
		for c := range centroids {
			members = members[:0]
			for i, p := range points {
				if assign[i] == c {
					members = append(members, p)
				}
			}
			if len(members) == 0 {
				continue
			}
			sum := ar.SumTree(members)
			centroids[c] = sum / uint64(len(members))
		}
	}
	return centroids, assign
}

// ThreeBlobs synthesizes 1-D points drawn from three well-separated
// clusters; returns points and the ground-truth means.
func ThreeBlobs(n int, seed uint64) (points []uint64, truth []uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xb10b5))
	truth = []uint64{40, 128, 210}
	points = make([]uint64, n)
	for i := range points {
		c := truth[i%3]
		v := int(c) + int(rng.Uint64()%21) - 10
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		points[i] = uint64(v)
	}
	return points, truth
}

// CentroidRMSE measures how far the found centroids sit from the truth
// (best matching under sorted order).
func CentroidRMSE(found, truth []uint64) float64 {
	if len(found) != len(truth) {
		return math.NaN()
	}
	f := append([]uint64(nil), found...)
	tr := append([]uint64(nil), truth...)
	sortU64(f)
	sortU64(tr)
	var sse float64
	for i := range f {
		d := float64(f[i]) - float64(tr[i])
		sse += d * d
	}
	return math.Sqrt(sse / float64(len(f)))
}

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
