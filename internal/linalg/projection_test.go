package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"apollo/internal/tensor"
)

func TestGaussianProjectionDeterministic(t *testing.T) {
	a := GaussianProjection(4, 32, 99)
	b := GaussianProjection(4, 32, 99)
	if !a.Equal(b) {
		t.Fatal("same seed must regenerate identical projection")
	}
	c := GaussianProjection(4, 32, 100)
	if a.Equal(c) {
		t.Fatal("different seeds must differ")
	}
}

func TestGaussianProjectionVariance(t *testing.T) {
	r := 64
	p := GaussianProjection(r, 512, 1)
	var sumsq float64
	for _, v := range p.Data {
		sumsq += float64(v) * float64(v)
	}
	variance := sumsq / float64(p.NumEl())
	if math.Abs(variance-1.0/float64(r)) > 0.1/float64(r) {
		t.Fatalf("entry variance %v want %v", variance, 1.0/float64(r))
	}
}

// TestJLNormPreservation verifies Theorem A.1 empirically: ‖Px‖ ≈ ‖x‖ with
// deviations controlled by rank. This is the paper's foundation for APOLLO's
// scaling-factor bound.
func TestJLNormPreservation(t *testing.T) {
	rng := tensor.NewRNG(3)
	const m, r = 256, 128
	const trials = 200
	var worst float64
	for trial := 0; trial < trials; trial++ {
		x := tensor.NewMatrixRand(m, 1, 1, rng)
		p := GaussianProjection(r, m, rng.Uint64())
		px := tensor.MatMul(p, x)
		ratio := px.Norm() / x.Norm()
		dev := math.Abs(ratio - 1)
		if dev > worst {
			worst = dev
		}
	}
	// With r=128 the concentration bound gives deviations well under 50%;
	// typical worst-case over 200 trials is ~0.3.
	if worst > 0.5 {
		t.Fatalf("JL norm preservation violated: worst deviation %v", worst)
	}
}

// TestJLDeviationShrinksWithRank checks the 1/√r dependence of the
// norm-preservation error, the mechanism that lets APOLLO tolerate low rank.
func TestJLDeviationShrinksWithRank(t *testing.T) {
	rng := tensor.NewRNG(5)
	meanDev := func(r int) float64 {
		const m, trials = 256, 120
		var total float64
		for trial := 0; trial < trials; trial++ {
			x := tensor.NewMatrixRand(m, 1, 1, rng)
			p := GaussianProjection(r, m, rng.Uint64())
			px := tensor.MatMul(p, x)
			total += math.Abs(px.Norm()/x.Norm() - 1)
		}
		return total / trials
	}
	lo, hi := meanDev(4), meanDev(64)
	if hi >= lo {
		t.Fatalf("deviation should shrink with rank: r=4 → %v, r=64 → %v", lo, hi)
	}
}

func TestProjectorRandomRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(7)
	g := tensor.NewMatrixRand(32, 48, 1, rng)
	pr := NewProjector(RandomProjection, 8, 42)
	pr.Refresh(g)
	r := pr.Project(g)
	if r.Rows != 8 || r.Cols != 48 {
		t.Fatalf("projected shape %dx%d want 8x48", r.Rows, r.Cols)
	}
	back := tensor.NewMatrix(32, 48)
	pr.ProjectBackInto(back, r)
	if back.Norm() == 0 {
		t.Fatal("lifting a nonzero projection back gave zero")
	}
}

func TestProjectorSeedReproducesMatrix(t *testing.T) {
	rng := tensor.NewRNG(9)
	g := tensor.NewMatrixRand(16, 16, 1, rng)
	pr := NewProjector(RandomProjection, 4, 1234)
	pr.Refresh(g)
	seed := pr.Seed()
	regenerated := GaussianProjection(4, 16, seed)
	if !pr.Matrix().Equal(regenerated) {
		t.Fatal("projection must be reproducible from its seed alone")
	}
}

func TestProjectorRefreshChangesRandomMatrix(t *testing.T) {
	rng := tensor.NewRNG(11)
	g := tensor.NewMatrixRand(16, 16, 1, rng)
	pr := NewProjector(RandomProjection, 4, 77)
	pr.Refresh(g)
	first := pr.Matrix().Clone()
	pr.Refresh(g)
	if pr.Matrix().Equal(first) {
		t.Fatal("refresh must draw a new subspace")
	}
}

func TestProjectorSVDAlignsWithGradient(t *testing.T) {
	// For a near rank-1 gradient, the SVD projector must preserve far more
	// energy than the rank itself would suggest.
	rng := tensor.NewRNG(13)
	u := tensor.NewMatrixRand(24, 1, 1, rng)
	v := tensor.NewMatrixRand(1, 36, 1, rng)
	g := tensor.MatMul(u, v)
	pr := NewProjector(SVDProjection, 2, 0)
	pr.Refresh(g)
	r := pr.Project(g)
	if r.Norm() < 0.99*g.Norm() {
		t.Fatalf("SVD projection kept only %v of %v", r.Norm(), g.Norm())
	}
}

func TestProjectorStateFloats(t *testing.T) {
	rng := tensor.NewRNG(15)
	g := tensor.NewMatrixRand(64, 80, 1, rng)
	rp := NewProjector(RandomProjection, 16, 1)
	rp.Refresh(g)
	if got := rp.StateFloats(); got != 1 {
		t.Fatalf("random projector state = %d floats, want 1 (seed only)", got)
	}
	sp := NewProjector(SVDProjection, 16, 1)
	sp.Refresh(g)
	if got := sp.StateFloats(); got != 16*64 {
		t.Fatalf("svd projector state = %d floats, want %d", got, 16*64)
	}
}

func TestProjectLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		m, n := 4+rng.Intn(16), 4+rng.Intn(16)
		g1 := tensor.NewMatrixRand(m, n, 1, rng)
		g2 := tensor.NewMatrixRand(m, n, 1, rng)
		pr := NewProjector(RandomProjection, 3, rng.Uint64())
		pr.Refresh(g1)
		lhs := pr.Project(tensor.Add(g1, g2))
		rhs := tensor.Add(pr.Project(g1), pr.Project(g2))
		return lhs.AllClose(rhs, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
