package optim

// A local is no declared surface.
func splitOf(t *StateTable) bool {
	fallback := t.fallback
	return fallback == nil
}
