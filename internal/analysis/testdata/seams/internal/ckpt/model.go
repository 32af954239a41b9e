package ckpt

import "io"

func readModel(r io.Reader) ([]byte, error) { return io.ReadAll(r) }
