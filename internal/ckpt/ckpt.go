// Package ckpt is the bit-exact checkpoint/resume subsystem: it snapshots a
// training run — model weights, step and LR counters, the corpus data-RNG
// cursor and the optimizer's complete persistent state (via the
// optim.StateSaver / optim.StateLoader hooks) — into a versioned,
// CRC-protected binary file, and restores it so that *train K steps →
// checkpoint → resume K steps* reproduces *train 2K steps straight*
// float-for-float (train.TestCheckpointResumeParity).
//
// Optimizer state is stored in the canonical unsharded layout, so
// checkpoints are elastic across ZeRO world sizes: a snapshot written under
// `-replicas N -zero` (internal/zero gathers shard-owned segments on save)
// resumes under any `-replicas M -zero` or unsharded world
// (train.TestElasticReshardParity).
package ckpt

import (
	"fmt"
	"os"
	"path/filepath"

	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/obs"
	"apollo/internal/optim"
)

// Name returns the identity checkpoints are keyed by: the optimizer's own
// name, except for wrappers (zero.Sharded) that answer with their inner
// optimizer's so snapshots stay world-size independent.
func Name(opt optim.Optimizer) string {
	if n, ok := opt.(optim.CheckpointNamer); ok {
		return n.CheckpointName()
	}
	return opt.Name()
}

// Capture snapshots a live training run after `step` completed steps.
// corpus may be nil for runs without a data stream. All captured data is
// deeply copied — the snapshot stays valid while training continues.
func Capture(step int, params []*nn.Param, opt optim.Optimizer, corpus *data.Corpus) (*State, error) {
	st := &State{
		Version:   Version,
		Optimizer: Name(opt),
		Step:      step,
		LR:        opt.LR(),
	}
	if corpus != nil {
		st.DataCursor = corpus.TrainCursor()
	}
	globals, err := opt.CaptureGlobals()
	if err != nil {
		return nil, err
	}
	st.OptGlobals = globals
	for _, p := range params {
		st.Params = append(st.Params, ParamMeta{
			Name: p.Name, Kind: uint8(p.Kind), Rows: p.W.Rows, Cols: p.W.Cols,
		})
		st.Weights = append(st.Weights, p.W.Clone())
		ps, err := opt.CaptureParam(p)
		if err != nil {
			return nil, fmt.Errorf("ckpt: capture %s: %w", p.Name, err)
		}
		st.OptStates = append(st.OptStates, ps)
	}
	return st, nil
}

// Restore installs a snapshot into live training objects: weights are
// copied into params, the corpus cursor is rewound, and the optimizer's
// state is rebuilt through optim.StateLoader. The parameter table must
// match the checkpoint exactly (same names, kinds and shapes in the same
// order); the optimizer must be the same method that wrote the snapshot,
// though its ZeRO world size may differ — a sharded target is initialized
// here and the canonical states are scattered across its current partition.
func Restore(st *State, params []*nn.Param, opt optim.Optimizer, corpus *data.Corpus) error {
	if got := Name(opt); got != st.Optimizer {
		return fmt.Errorf("ckpt: checkpoint was written by %q, cannot resume with %q", st.Optimizer, got)
	}
	if err := matchParams(params, st.Params); err != nil {
		return err
	}

	// A partitioned optimizer must know its ownership map before states can
	// be scattered; Init is idempotent for the same parameter list, so the
	// training loop's own Init call later is a no-op.
	if sh, ok := opt.(optim.ShardedStepper); ok {
		sh.Init(params)
	}

	for i, p := range params {
		p.W.CopyFrom(st.Weights[i])
	}
	if corpus != nil {
		corpus.SeekTrain(st.DataCursor)
	}
	opt.SetLR(st.LR)
	if err := opt.RestoreGlobals(st.OptGlobals); err != nil {
		return err
	}
	for i, ps := range st.OptStates {
		if ps == nil {
			continue
		}
		if err := opt.RestoreParam(params[i], ps); err != nil {
			return fmt.Errorf("ckpt: restore %s: %w", params[i].Name, err)
		}
	}
	return nil
}

// SaveFile atomically writes st to path: the bytes land in a temporary
// sibling file first and replace any existing checkpoint via rename, so a
// crash mid-save never destroys the previous snapshot.
func SaveFile(path string, st *State) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, st); err != nil {
		// The write already failed and the temp file is discarded; the
		// close error is secondary but still accounted, never silent.
		obs.CountWriteError(tmp.Close())
		return err
	}
	// Flush to stable storage before the rename becomes visible: without it
	// a power loss can leave the path pointing at an empty file while the
	// previous snapshot is already gone.
	if err := tmp.Sync(); err != nil {
		obs.CountWriteError(tmp.Close())
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile reads and fully verifies a checkpoint file.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //apollo:allowdiscard file opened read-only; close cannot lose written bytes
	return Read(f)
}
