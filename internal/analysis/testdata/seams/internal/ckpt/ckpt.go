package ckpt

import (
	"io"

	"apollo/internal/nn"
	"apollo/internal/optim"
)

type State struct{ Step int }

func Capture(step int, ps []*nn.Param, opt optim.Optimizer) (*State, error) {
	return &State{Step: step}, nil
}

func SaveFile(path string, st *State) error { return nil }

func readAgain(r io.Reader) ([]byte, error) {
	return io.ReadAll(r) // want `io.ReadAll: second checkpoint reader in internal/ckpt`
}

func CaptureGlobals() {} // want `declared CaptureGlobals: order-keeping layer reintroduced`
