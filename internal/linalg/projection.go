package linalg

import (
	"fmt"
	"math"

	"apollo/internal/tensor"
)

// ProjectionKind selects how a low-rank optimizer builds its projection
// matrix.
type ProjectionKind int

const (
	// RandomProjection samples P from N(0, 1/r) using only a stored seed —
	// APOLLO's default. Regenerating the matrix costs a seeded RNG pass, so
	// the optimizer never has to persist P (Table 1's "+2" constant: the
	// seed plus the previous gradient norm for the norm-growth limiter).
	RandomProjection ProjectionKind = iota
	// SVDProjection uses the top-k left singular vectors of the current
	// gradient — GaLore's default and the "APOLLO w. SVD" variant.
	SVDProjection
)

// String implements fmt.Stringer.
func (k ProjectionKind) String() string {
	switch k {
	case RandomProjection:
		return "random"
	case SVDProjection:
		return "svd"
	default:
		return fmt.Sprintf("ProjectionKind(%d)", int(k))
	}
}

// GaussianProjection materializes an r×m matrix with i.i.d. N(0, 1/r)
// entries from the given seed. Identical seeds yield identical matrices, so
// callers may discard the matrix and regenerate it on demand.
func GaussianProjection(r, m int, seed uint64) *tensor.Matrix {
	if r <= 0 || m <= 0 {
		panic(fmt.Sprintf("linalg: GaussianProjection dims %dx%d", r, m))
	}
	rng := tensor.NewRNG(seed)
	p := tensor.NewMatrix(r, m)
	std := 1.0 / math.Sqrt(float64(r))
	for i := range p.Data {
		p.Data[i] = float32(rng.Norm() * std)
	}
	return p
}

// Projector produces and refreshes the r×m projection used to compress
// gradients. It abstracts the SVD/random choice so optimizers share the same
// update path.
type Projector struct {
	Kind ProjectionKind
	Rank int

	seed uint64
	rng  *tensor.RNG
	p    *tensor.Matrix // current projection (r×m), lazily built
	m    int
}

// NewProjector builds a projector of the given kind and rank. The seed
// parameterizes the random-projection stream; it is ignored for SVD.
func NewProjector(kind ProjectionKind, rank int, seed uint64) *Projector {
	return &Projector{Kind: kind, Rank: rank, seed: seed, rng: tensor.NewRNG(seed)}
}

// Refresh rebuilds the projection matrix from the current gradient g (m×n).
// For random projections this just draws a fresh seed — the O(mn·min(m,n))
// SVD cost disappears entirely, which is the core of APOLLO's system claim.
func (pr *Projector) Refresh(g *tensor.Matrix) {
	pr.m = g.Rows
	switch pr.Kind {
	case RandomProjection:
		pr.seed = pr.rng.Uint64()
		pr.p = GaussianProjection(pr.Rank, g.Rows, pr.seed)
	case SVDProjection:
		pr.p = TopKLeft(g, pr.Rank)
	default:
		panic("linalg: unknown projection kind")
	}
}

// Ready reports whether a projection has been built.
func (pr *Projector) Ready() bool { return pr.p != nil }

// Matrix returns the current r×m projection.
func (pr *Projector) Matrix() *tensor.Matrix {
	if pr.p == nil {
		panic("linalg: Projector used before Refresh")
	}
	return pr.p
}

// Seed returns the seed of the current random projection (meaningful only
// for RandomProjection). Storing this single value is all APOLLO needs to be
// able to reproduce P.
func (pr *Projector) Seed() uint64 { return pr.seed }

// Project computes R = P·G (r×n).
func (pr *Projector) Project(g *tensor.Matrix) *tensor.Matrix {
	return tensor.MatMul(pr.Matrix(), g)
}

// ProjectInto computes out = P·G reusing out's storage.
func (pr *Projector) ProjectInto(out, g *tensor.Matrix) {
	tensor.MatMulInto(out, pr.Matrix(), g)
}

// ProjectBack lifts a low-rank update R (r×n) to the original space, Pᵀ·R
// (m×n). GaLore needs this on every step; APOLLO never does (it only reads
// norms in the compressed space).
func (pr *Projector) ProjectBack(r *tensor.Matrix) *tensor.Matrix {
	return tensor.TMatMul(pr.Matrix(), r)
}

// ProjectBackInto computes out = Pᵀ·R reusing out's storage.
func (pr *Projector) ProjectBackInto(out, r *tensor.Matrix) {
	tensor.TMatMulInto(out, pr.Matrix(), r)
}

// StateFloats reports how many float32 values the projector must keep
// resident between steps: SVD must persist the full r×m matrix, whereas the
// random projector only needs its seed (counted as one scalar slot,
// matching the "+2 = seed + gradient norm" accounting in Table 1).
func (pr *Projector) StateFloats() int {
	switch pr.Kind {
	case RandomProjection:
		return 1
	case SVDProjection:
		return pr.Rank * pr.m
	default:
		return 0
	}
}

// ProjectorSnap is the persistent state of a Projector for checkpointing:
// the current seed, the RNG phase that generates future refresh seeds, the
// projected dimension, and — only for SVD, whose matrix derives from a past
// gradient and cannot be regenerated — the projection matrix itself. A
// random projector's matrix is rebuilt from Seed on restore, so the
// checkpoint stays as small as Table 1's "+1 seed" accounting promises.
type ProjectorSnap struct {
	Seed  uint64
	RNG   uint64
	M     int
	Ready bool
	P     *tensor.Matrix // SVD only; nil for random projections
}

// Snapshot captures the projector's persistent state. The returned matrix
// (SVD only) is a deep copy, safe to retain across further refreshes.
func (pr *Projector) Snapshot() ProjectorSnap {
	s := ProjectorSnap{Seed: pr.seed, RNG: pr.rng.State(), M: pr.m, Ready: pr.p != nil}
	if pr.Kind == SVDProjection && pr.p != nil {
		s.P = pr.p.Clone()
	}
	return s
}

// RestoreSnapshot installs a state captured by Snapshot. The projector must
// have been constructed with the same kind and rank. Random projections are
// regenerated from the restored seed bit-for-bit.
func (pr *Projector) RestoreSnapshot(s ProjectorSnap) error {
	pr.seed = s.Seed
	pr.rng.SetState(s.RNG)
	pr.m = s.M
	pr.p = nil
	if !s.Ready {
		return nil
	}
	switch pr.Kind {
	case RandomProjection:
		if s.M <= 0 {
			return fmt.Errorf("linalg: restore random projector with m=%d", s.M)
		}
		pr.p = GaussianProjection(pr.Rank, s.M, s.Seed)
	case SVDProjection:
		if s.P == nil {
			return fmt.Errorf("linalg: restore SVD projector without its matrix")
		}
		if s.P.Rows != pr.Rank || s.P.Cols != s.M {
			return fmt.Errorf("linalg: restore SVD projector %dx%d, want %dx%d",
				s.P.Rows, s.P.Cols, pr.Rank, s.M)
		}
		pr.p = s.P.Clone()
	default:
		return fmt.Errorf("linalg: restore unknown projection kind %v", pr.Kind)
	}
	return nil
}

// RefreshFlops estimates the cost of one projection refresh on an m×n
// gradient. Random projection costs one RNG pass over r·m entries; SVD costs
// a full decomposition.
func RefreshFlops(kind ProjectionKind, rank, m, n int) float64 {
	switch kind {
	case RandomProjection:
		return float64(rank * m)
	case SVDProjection:
		return SVDFlops(m, n)
	default:
		return 0
	}
}
