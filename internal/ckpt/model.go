// Weights-only checkpoint access: the read path of the evaluation service.
// A served snapshot needs the model and its identity — never the optimizer
// moments — so ReadModel decodes only the META and WGTS sections and leaves
// the OPTP payload untouched. Every section CRC is still verified
// (serving a silently corrupted model is worse than refusing), but the
// optimizer-state bytes are never decoded into matrices: the resident cost
// of an open snapshot is its model weights (memmodel.ServeBytes), not the
// 2–3× larger training footprint the full Read materializes.

package ckpt

import (
	"fmt"
	"io"
	"math"
	"os"

	"apollo/internal/nn"
	"apollo/internal/tensor"
)

// ModelSnapshot is the weights-only view of a checkpoint: identity, the
// self-describing parameter table and the weight matrices. It carries no
// optimizer state and no data cursor — everything a forward pass needs,
// nothing a training step would.
type ModelSnapshot struct {
	Version   uint32
	Optimizer string
	Step      int
	LR        float64
	Params    []ParamMeta
	Weights   []*tensor.Matrix // one per parameter, in table order
}

// WeightBytes returns the resident footprint of the decoded weights.
func (s *ModelSnapshot) WeightBytes() int64 {
	var total int64
	for _, w := range s.Weights {
		total += 4 * int64(len(w.Data))
	}
	return total
}

// readModel reads a whole checkpoint, verifies its magic, version, section
// table and every section CRC, and decodes the model half. It returns the
// verified payloads by tag for the caller to decode the rest: the one decoder
// of Read and ReadModel.
func readModel(r io.Reader) (*ModelSnapshot, map[string][]byte, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	version, secs, err := readSections(raw)
	if err != nil {
		return nil, nil, err
	}
	byTag := map[string][]byte{}
	for _, s := range secs {
		byTag[s.tag] = s.payload
	}

	snap := &ModelSnapshot{Version: version}
	meta := &dec{buf: byTag[TagMeta]}
	snap.Optimizer = meta.str()
	snap.Step = int(meta.u64())
	snap.LR = math.Float64frombits(meta.u64())
	nparams := int(meta.u64())
	if meta.err == nil && nparams > len(meta.buf) {
		return nil, nil, fmt.Errorf("ckpt: META claims %d parameters in a %d-byte table", nparams, len(meta.buf))
	}
	for i := 0; i < nparams && meta.err == nil; i++ {
		snap.Params = append(snap.Params, ParamMeta{
			Name: meta.str(), Kind: meta.u8(),
			Rows: int(meta.u32()), Cols: int(meta.u32()),
		})
	}
	if err := meta.done(); err != nil {
		return nil, nil, fmt.Errorf("ckpt: META: %w", err)
	}

	wgts := &dec{buf: byTag[TagWeights]}
	snap.Weights = make([]*tensor.Matrix, 0, len(snap.Params))
	for _, p := range snap.Params {
		snap.Weights = append(snap.Weights, wgts.matrix(p.Rows, p.Cols))
	}
	if err := wgts.done(); err != nil {
		return nil, nil, fmt.Errorf("ckpt: WGTS: %w", err)
	}
	return snap, byTag, nil
}

// ReadModel decodes the weights-only view of a checkpoint. The magic,
// version and every section CRC are verified exactly as in Read, but only
// META and WGTS are decoded — the optimizer sections never allocate.
func ReadModel(r io.Reader) (*ModelSnapshot, error) {
	snap, _, err := readModel(r)
	return snap, err
}

// LoadModelFile reads the weights-only view of a checkpoint file.
func LoadModelFile(path string) (*ModelSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //apollo:allowdiscard file opened read-only; close cannot lose written bytes
	return ReadModel(f)
}

// InstallWeights copies the snapshot's weights into a live parameter list
// after verifying the table matches (same names, kinds and shapes in the
// same order). The snapshot stays valid and unshared afterwards.
func (s *ModelSnapshot) InstallWeights(params []*nn.Param) error {
	if len(params) != len(s.Params) {
		return fmt.Errorf("ckpt: model has %d parameters, checkpoint %d", len(params), len(s.Params))
	}
	for i, p := range params {
		m := s.Params[i]
		if p.Name != m.Name || uint8(p.Kind) != m.Kind || p.W.Rows != m.Rows || p.W.Cols != m.Cols {
			return fmt.Errorf("ckpt: parameter %d is %s/%v/%dx%d, checkpoint has %s/%d/%dx%d",
				i, p.Name, p.Kind, p.W.Rows, p.W.Cols, m.Name, m.Kind, m.Rows, m.Cols)
		}
	}
	for i, p := range params {
		p.W.CopyFrom(s.Weights[i])
	}
	return nil
}
