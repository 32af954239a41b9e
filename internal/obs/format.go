package obs

import (
	"fmt"
	"math"
)

// FormatBytes renders byte counts for tables. Negative counts (deltas,
// prediction errors) keep their sign in front of the scaled magnitude.
func FormatBytes(b int64) string {
	if b < 0 {
		if b == math.MinInt64 {
			// -b would overflow; one byte of slack is invisible at 8 EiB.
			b++
		}
		return "-" + FormatBytes(-b)
	}
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fG", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fM", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fK", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
