package data

import "apollo/internal/tensor"

// Next draws from a stream outside optim/core: the stream-draw row does not
// apply here.
func Next(r *tensor.RNG) uint64 { return r.Uint64() }
