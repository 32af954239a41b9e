package optim

// Declared exposes a table's declaration to the README layout check.
func (t *StateTable) Declared() (Schema, *StateTable) { return t.schema, t.fallback }
