package nn

// Declaration rows cover test files.
func FreeGrads() {} // want `declared FreeGrads: gradient lifetime outside the arena`
