package zero

import (
	"testing"

	"apollo/internal/optim"
)

// sameParamState compares two canonical states bit-for-bit.
func sameParamState(t *testing.T, name string, got, want *optim.ParamState) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: state presence differs (got %v, want %v)", name, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if len(got.Scalars) != len(want.Scalars) || len(got.RowMats) != len(want.RowMats) ||
		len(got.Whole) != len(want.Whole) || len(got.Blobs) != len(want.Blobs) {
		t.Fatalf("%s: state layout differs", name)
	}
	for i := range want.Scalars {
		if got.Scalars[i] != want.Scalars[i] {
			t.Fatalf("%s: scalar %d = %d, want %d", name, i, got.Scalars[i], want.Scalars[i])
		}
	}
	for i := range want.RowMats {
		if !got.RowMats[i].Equal(want.RowMats[i]) {
			t.Fatalf("%s: row matrix %d differs", name, i)
		}
	}
	for i := range want.Whole {
		if !got.Whole[i].Equal(want.Whole[i]) {
			t.Fatalf("%s: whole matrix %d differs", name, i)
		}
	}
}

// TestGatherMatchesUnshardedCapture pins the canonical-layout contract at
// the unit level: after identical training steps, a Sharded wrapper's
// gathered per-parameter states must equal the unsharded inner
// optimizer's bit-for-bit — which is exactly why a sharded checkpoint can
// resume anywhere.
func TestGatherMatchesUnshardedCapture(t *testing.T) {
	const steps = 4
	for name, build := range shardableBuilders() {
		t.Run(name, func(t *testing.T) {
			plainParams := testParams(3)
			plain := build()
			shardParams := testParams(3)
			sh := NewSharded(build(), 3)

			for s := 0; s < steps; s++ {
				fillGrads(plainParams, s)
				fillGrads(shardParams, s)
				plain.Step(plainParams)
				sh.Step(shardParams)
			}

			for i := range plainParams {
				want, err := plain.CaptureParam(plainParams[i])
				if err != nil {
					t.Fatal(err)
				}
				got, err := sh.CaptureParam(shardParams[i])
				if err != nil {
					t.Fatal(err)
				}
				sameParamState(t, plainParams[i].Name, got, want)
			}
			if sh.CheckpointName() != plain.Name() {
				t.Fatalf("checkpoint name %q, want %q", sh.CheckpointName(), plain.Name())
			}
		})
	}
}
