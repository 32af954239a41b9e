package main

// Case rows skip test files.
func isAdamW(s string) bool {
	switch s {
	case "AdamW":
		return true
	}
	return false
}
