package main

import (
	"fmt"

	"apollo/internal/ckpt"
	"apollo/internal/memmodel"
	"apollo/internal/nn"
	"apollo/internal/optim"
)

const mini = "APOLLO-Mini"

func main() {
	var opt optim.Optimizer
	var ps []*nn.Param
	st, _ := ckpt.Capture(1, ps, opt) // want `ckpt.Capture: checkpoint saved outside the training loop`
	_ = ckpt.SaveFile("x", st)        // want `ckpt.SaveFile: checkpoint saved outside the training loop`

	shapes := make([]memmodel.Shape, 2) // a type named, no Shape built
	shapes[0] = memmodel.ParamShape(1, 2)
	shapes[1] = memmodel.Shape{Rows: 1} // want `memmodel.Shape: shapes built outside internal/memmodel`
	more := []memmodel.Shape{
		{Rows: 2}, // want `memmodel.Shape: shapes built outside internal/memmodel`
	}
	fmt.Println(len(shapes)+len(more), layer("attn"), rank("x"))
}

func layer(name string) int {
	switch name {
	case "attn":
		return 0
	case "APOLLO": // want `case "APOLLO": a method is named in a switch outside the catalogue`
		return 1
	}
	return 2
}

// rank names a method through a const, which a text match on `case "` misses.
func rank(name string) int {
	switch name {
	case mini: // want `case "APOLLO-Mini" \(mini\): a method is named in a switch outside the catalogue`
		return 1
	}
	return 0
}
