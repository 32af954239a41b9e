package memmodel

const BytesINT8 = 1.0

type Shape struct{ Rows, Cols int }

type Method struct {
	StateElems    func(m, n, r int64) int64
	StateBytesPer float64
}

func ParamShape(rows, cols int) Shape { return Shape{Rows: rows, Cols: cols} }

func StateElems(shapes []Shape, m Method, rank int) float64 {
	var n int64
	for _, s := range shapes {
		n += m.StateElems(int64(s.Rows), int64(s.Cols), int64(rank))
	}
	return float64(n)
}

func LiveStateBytes(shapes []Shape, m Method, rank int) float64 {
	return StateElems(shapes, m, rank) * m.StateBytesPer * BytesINT8
}

func MethodByName(name string) (Method, bool) { return Method{}, false } // want `declared MethodByName: a by-name method lookup outside the catalogue`
