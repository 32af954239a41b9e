package runtime

func ForRange(n, grain int, fn func(lo, hi int)) { fn(0, n) }
