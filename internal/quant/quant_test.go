package quant

import (
	"math"
	"testing"
	"testing/quick"

	"apollo/internal/tensor"
)

func TestRoundTripErrorSmall(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := tensor.NewMatrixRand(64, 64, 1, rng)
	if err := QuantError(m, DefaultGroupSize); err > 0.02 {
		t.Fatalf("INT8 round-trip error %v too large", err)
	}
}

func TestRoundTripExactForZeros(t *testing.T) {
	m := tensor.NewMatrix(8, 8)
	q := NewTensor8(8, 8, 4)
	QuantizeNearest(q, m)
	back := Dequantize(q, nil)
	if !back.Equal(m) {
		t.Fatal("zero tensor must round-trip exactly")
	}
}

func TestQuantizePreservesSign(t *testing.T) {
	m := tensor.FromSlice(1, 4, []float32{-3, -1, 1, 3})
	q := NewTensor8(1, 4, 4)
	QuantizeNearest(q, m)
	back := Dequantize(q, nil)
	for i, v := range back.Data {
		if (v < 0) != (m.Data[i] < 0) {
			t.Fatalf("sign flipped at %d: %v vs %v", i, v, m.Data[i])
		}
	}
}

func TestGroupScalesIndependent(t *testing.T) {
	// A large value in one group must not destroy precision in another.
	m := tensor.NewMatrix(1, 8)
	for i := 0; i < 4; i++ {
		m.Data[i] = 1000
	}
	for i := 4; i < 8; i++ {
		m.Data[i] = 0.001 * float32(i)
	}
	q := NewTensor8(1, 8, 4)
	QuantizeNearest(q, m)
	back := Dequantize(q, nil)
	for i := 4; i < 8; i++ {
		if math.Abs(float64(back.Data[i]-m.Data[i])) > 1e-4 {
			t.Fatalf("small group polluted: %v vs %v", back.Data[i], m.Data[i])
		}
	}
}

func TestStochasticRoundingUnbiased(t *testing.T) {
	// Encoding a constant 0.5-of-a-code value many times must average to
	// the true value, not the floor.
	m := tensor.NewMatrix(1, 128)
	m.Fill(0.5)
	// Add one sentinel 127 so scale = 1/... known: absmax=127? simpler:
	m.Data[0] = 127
	q := NewTensor8(1, 128, 128)
	var sum float64
	const trials = 400
	for k := 0; k < trials; k++ {
		Quantize(q, m, tensor.Mix(2, "", uint64(k)))
		back := Dequantize(q, nil)
		sum += float64(back.Data[1])
	}
	avg := sum / trials
	if math.Abs(avg-0.5) > 0.05 {
		t.Fatalf("stochastic rounding biased: mean %v want 0.5", avg)
	}
}

func TestBytesAccounting(t *testing.T) {
	q := NewTensor8(16, 16, 128)
	want := int64(256 + 4*2) // 256 codes + 2 group scales
	if q.Bytes() != want {
		t.Fatalf("Bytes = %d want %d", q.Bytes(), want)
	}
}

func TestQuantizedWeightUpdate(t *testing.T) {
	rng := tensor.NewRNG(3)
	w := tensor.NewMatrixRand(8, 8, 1, rng)
	qw := NewQuantizedWeight(w, 32, 7)
	delta := tensor.NewMatrixRand(8, 8, 0.1, rng)
	before := qw.Materialize(nil)
	qw.Store(tensor.Add(before, delta))
	after := qw.Materialize(nil)
	moved := tensor.Sub(after, before)
	// The realized movement must correlate strongly with the requested delta.
	dot := tensor.Dot(moved.Data, delta.Data)
	if dot <= 0 {
		t.Fatal("update moved weights against the delta")
	}
	cos := dot / float32(moved.Norm()*delta.Norm())
	if cos < 0.8 {
		t.Fatalf("update direction cosine %v too low", cos)
	}
}

func TestQuantizedWeightAccumulatesSmallUpdates(t *testing.T) {
	// Repeated tiny updates must not be swallowed: stochastic rounding
	// should accumulate them in expectation.
	w := tensor.NewMatrix(1, 128)
	w.Data[0] = 1 // sets the scale
	qw := NewQuantizedWeight(w, 128, 11)
	delta := tensor.NewMatrix(1, 128)
	delta.Data[5] = 0.001 // far below one code (scale ≈ 1/127)
	for i := 0; i < 3000; i++ {
		qw.Store(tensor.Add(qw.Materialize(nil), delta))
	}
	got := qw.Materialize(nil).Data[5]
	if got < 1.0 { // expect ≈ 3.0 accumulated
		t.Fatalf("small updates vanished: got %v want ≈3", got)
	}
}

func TestQuantizeClampsOutliers(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		m := tensor.NewMatrixRand(4, 32, 10, rng)
		q := NewTensor8(4, 32, 16)
		Quantize(q, m, seed)
		for _, c := range q.Codes {
			if c > 127 || c < -127 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDequantizeIntoProvided(t *testing.T) {
	rng := tensor.NewRNG(5)
	m := tensor.NewMatrixRand(4, 4, 1, rng)
	q := NewTensor8(4, 4, 8)
	QuantizeNearest(q, m)
	out := tensor.NewMatrix(4, 4)
	got := Dequantize(q, out)
	if got != out {
		t.Fatal("Dequantize must reuse the provided matrix")
	}
}
