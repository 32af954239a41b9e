package core

import (
	"math"
	"reflect"
	"testing"

	"apollo/internal/ckpt"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// resumesAcross is the one list of fields a checkpoint resumes across on
// purpose: the name leaves them out, so a snapshot restores under any value
// of them. Every other field of Config and optim.Hyper must be stated by
// the name or change no step taken from a restored state.
var resumesAcross = map[string]string{
	"Hyper.Beta1":       runSetting,
	"Hyper.Beta2":       runSetting,
	"Hyper.Eps":         runSetting,
	"Hyper.WeightDecay": runSetting,
	"Config.UpdateGap": "every catalogue row fixes T = 50 against APOLLO's default of 200, so naming T would rename " +
		"every catalogue checkpoint; a snapshot resumes under any T",
}

const runSetting = "a run's hyperparameters come from the command that resumes it, as its learning-rate schedule does"

// TestCheckpointNameStatesEveryConfigField flips each field of Config in
// turn. An APOLLO snapshot must not resume under a configuration that
// steps differently, since ckpt.Restore checks the name alone.
func TestCheckpointNameStatesEveryConfigField(t *testing.T) {
	h := optim.Hyper{LR: 0.01, WeightDecay: 0.1}
	base := Config{Rank: 2, UpdateGap: 2}.withDefaults()
	forEachFlip(t, "Config", base, func(t *testing.T, flipped any) {
		checkNameStatesUpdate(t,
			func() optim.Optimizer { return New(h, base) },
			func() optim.Optimizer { return New(h, flipped.(Config)) })
	})
}

// TestCheckpointNameStatesEveryHyperField does the same over optim.Hyper
// for a dense row (AdamW) and a projected one (APOLLO).
func TestCheckpointNameStatesEveryHyperField(t *testing.T) {
	base := optim.Hyper{LR: 0.01, WeightDecay: 0.1}.WithDefaults()
	rows := []struct {
		name string
		mk   func(optim.Hyper) optim.Optimizer
	}{
		{"AdamW", func(h optim.Hyper) optim.Optimizer { return optim.NewAdamW(h) }},
		{"APOLLO", func(h optim.Hyper) optim.Optimizer { return New(h, Config{Rank: 2, UpdateGap: 2}) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			forEachFlip(t, "Hyper", base, func(t *testing.T, flipped any) {
				checkNameStatesUpdate(t,
					func() optim.Optimizer { return row.mk(base) },
					func() optim.Optimizer { return row.mk(flipped.(optim.Hyper)) })
			})
		})
	}
}

// forEachFlip runs check, as a subtest named after the field, on a copy of
// the struct base with one field changed, for every field not on
// resumesAcross. A field of a kind it cannot flip fails the test, so a new
// field cannot pass unchecked.
func forEachFlip(t *testing.T, kind string, base any, check func(t *testing.T, flipped any)) {
	v := reflect.ValueOf(base)
	for i := range v.NumField() {
		field := v.Type().Field(i).Name
		if _, ok := resumesAcross[kind+"."+field]; ok {
			continue
		}
		t.Run(field, func(t *testing.T) {
			flipped := reflect.New(v.Type()).Elem()
			flipped.Set(v)
			f := flipped.Field(i)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Float64:
				f.SetFloat(2*f.Float() + 1)
			default:
				t.Fatalf("%s.%s: no flip for kind %s", kind, field, f.Kind())
			}
			check(t, flipped.Interface())
		})
	}
}

// checkNameStatesUpdate steps a's optimizer twice and snapshots it, then
// restores the snapshot into a fresh a and a fresh b and steps both on one
// gradient. Passing outcomes: the two are named apart, b refuses the
// snapshot, or both step to the same weights and state bit for bit.
func checkNameStatesUpdate(t *testing.T, a, b func() optim.Optimizer) {
	t.Helper()
	if na, nb := ckpt.Name(a()), ckpt.Name(b()); na != nb {
		return
	}
	params := func() []*nn.Param {
		return []*nn.Param{
			matParam(t, "w", 8, 16, 3),
			nn.NewParam("g", nn.KindVector, tensor.NewMatrixRand(1, 16, 0.1, tensor.NewRNG(4))),
		}
	}
	// The third gradient is three times the first two: the norm-growth
	// limiter acts on it.
	step := func(opt optim.Optimizer, ps []*nn.Param, k int) {
		rng := tensor.NewRNG(uint64(100 + k))
		for _, p := range ps {
			fillGrad(p, rng, float64(1+2*(k/2)))
		}
		opt.Step(ps)
	}
	src, ps := a(), params()
	step(src, ps, 0)
	step(src, ps, 1)
	snap, err := ckpt.Capture(2, ps, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	third := func(opt optim.Optimizer) ([]uint32, []*optim.ParamState, error) {
		qs := params()
		if err := ckpt.Restore(snap, qs, opt, nil); err != nil {
			return nil, nil, err
		}
		step(opt, qs, 2)
		var bits []uint32
		var states []*optim.ParamState
		for _, q := range qs {
			for _, w := range q.W.Data {
				bits = append(bits, math.Float32bits(w))
			}
			st, err := opt.CaptureParam(q)
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, st)
		}
		return bits, states, nil
	}
	wantBits, wantStates, err := third(a())
	if err != nil {
		t.Fatal(err)
	}
	gotBits, gotStates, err := third(b())
	if err != nil {
		return // the snapshot's layout is refused: nothing resumes wrongly
	}
	if !reflect.DeepEqual(gotBits, wantBits) || !reflect.DeepEqual(gotStates, wantStates) {
		t.Errorf("both checkpointed as %q: a snapshot of one resumes under the other, which steps differently", snap.Optimizer)
	}
}
