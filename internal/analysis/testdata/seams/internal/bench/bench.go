package bench

import (
	"fmt"

	"apollo/internal/memmodel"
)

type Method struct {
	Name string
	Mem  memmodel.Method
}

func Methods() []Method { return []Method{{Name: "APOLLO"}, {Name: "GaLore"}} }

// MethodByName is the catalogue's own lookup.
func MethodByName(name string) (Method, error) {
	for _, m := range Methods() {
		if m.Name == name {
			return m, nil
		}
	}
	return Method{}, fmt.Errorf("unknown method %q", name)
}

func rank(name string) int {
	switch name {
	case "GaLore": // want `case "GaLore": a method is named in a switch outside the catalogue`
		return 1
	}
	return 0
}
