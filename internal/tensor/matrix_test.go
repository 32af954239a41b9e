package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zeroed: %v", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2)=%v want 7", m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestCloneIndependent(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must deep copy")
	}
}

func TestTransposeKnown(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	want := FromSlice(3, 2, []float32{1, 4, 2, 5, 3, 6})
	if !m.T().Equal(want) {
		t.Fatalf("T() = %v want %v", m.T(), want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, c := 1+rng.Intn(40), 1+rng.Intn(40)
		m := NewMatrixRand(r, c, 1, rng)
		return m.T().T().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float32{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := NewMatrixRand(5, 7, 1, rng)
	id := NewMatrix(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(i, i, 1)
	}
	if !MatMul(a, id).AllClose(a, 1e-6) {
		t.Fatal("A·I != A")
	}
}

// naiveMul is the reference implementation used to cross-check the blocked
// parallel kernels.
func naiveMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, k, c := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := NewMatrixRand(r, k, 1, rng)
		b := NewMatrixRand(k, c, 1, rng)
		return MatMul(a, b).AllClose(naiveMul(a, b), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, k, c := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := NewMatrixRand(r, k, 1, rng)
		b := NewMatrixRand(c, k, 1, rng)
		return MatMulT(a, b).AllClose(MatMul(a, b.T()), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTMatMulMatchesExplicitTranspose(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, k, c := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := NewMatrixRand(k, r, 1, rng)
		b := NewMatrixRand(k, c, 1, rng)
		return TMatMul(a, b).AllClose(MatMul(a.T(), b), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dim mismatch")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestAddSubScaleHadamard(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{4, 5, 6})
	if got := Add(a, b); !got.Equal(FromSlice(1, 3, []float32{5, 7, 9})) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !got.Equal(FromSlice(1, 3, []float32{3, 3, 3})) {
		t.Fatalf("Sub = %v", got)
	}
	// SubInto may write over either operand.
	overB := b.Clone()
	SubInto(overB, a, overB)
	if want := FromSlice(1, 3, []float32{-3, -3, -3}); !overB.Equal(want) {
		t.Fatalf("SubInto over its subtrahend = %v, want %v", overB, want)
	}
	if got := Scale(2, a); !got.Equal(FromSlice(1, 3, []float32{2, 4, 6})) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestAxpyInPlace(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 1, 1})
	b := FromSlice(1, 3, []float32{1, 2, 3})
	AxpyInPlace(a, 2, b)
	if !a.Equal(FromSlice(1, 3, []float32{3, 5, 7})) {
		t.Fatalf("Axpy = %v", a)
	}
}

func TestScaleColsRows(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 1, 1, 1, 1, 1})
	ScaleColsInPlace(m, []float32{1, 2, 3})
	if !m.Equal(FromSlice(2, 3, []float32{1, 2, 3, 1, 2, 3})) {
		t.Fatalf("ScaleCols = %v", m)
	}
}

func TestDistributivity(t *testing.T) {
	// (A+B)·C == A·C + B·C within float tolerance.
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, k, c := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := NewMatrixRand(r, k, 1, rng)
		b := NewMatrixRand(r, k, 1, rng)
		cm := NewMatrixRand(k, c, 1, rng)
		lhs := MatMul(Add(a, b), cm)
		rhs := Add(MatMul(a, cm), MatMul(b, cm))
		return lhs.AllClose(rhs, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNorms(t *testing.T) {
	m := FromSlice(2, 2, []float32{3, 0, 0, 4})
	if got := m.Norm(); math.Abs(got-5) > 1e-6 {
		t.Fatalf("Norm = %v want 5", got)
	}
	cn := m.ColNorms()
	if math.Abs(cn[0]-3) > 1e-6 || math.Abs(cn[1]-4) > 1e-6 {
		t.Fatalf("ColNorms = %v", cn)
	}
	rn := m.RowNorms()
	if math.Abs(rn[0]-3) > 1e-6 || math.Abs(rn[1]-4) > 1e-6 {
		t.Fatalf("RowNorms = %v", rn)
	}
}

func TestSoftmax(t *testing.T) {
	x := []float32{1, 2, 3}
	SoftmaxInPlace(x)
	var sum float64
	for _, v := range x {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if !(x[2] > x[1] && x[1] > x[0]) {
		t.Fatalf("softmax not monotone: %v", x)
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := []float32{1000, 1001, 1002}
	SoftmaxInPlace(x)
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflow: %v", x)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp([]float32{0, 0})
	if math.Abs(got-math.Log(2)) > 1e-6 {
		t.Fatalf("LogSumExp = %v want ln2", got)
	}
	// Large values must not overflow.
	if got := LogSumExp([]float32{1e4, 1e4}); math.IsInf(got, 0) {
		t.Fatal("LogSumExp overflow")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float32{1, 5, 3}) != 1 {
		t.Fatal("wrong argmax")
	}
	if ArgMax([]float32{7, 7}) != 0 {
		t.Fatal("ties must go to first index")
	}
}

func TestHasNaN(t *testing.T) {
	m := NewMatrix(1, 2)
	if m.HasNaN() {
		t.Fatal("zero matrix reported NaN")
	}
	m.Set(0, 1, float32(math.NaN()))
	if !m.HasNaN() {
		t.Fatal("NaN not detected")
	}
}
