package obs

import (
	"math"
	"testing"
)

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:           "512B",
		2048:          "2.00K",
		3 << 20:       "3.00M",
		5 << 30:       "5.00G",
		1536 << 20:    "1.50G",
		1234 << 10:    "1.21M",
		(1 << 30):     "1.00G",
		(1 << 30) - 1: "1024.00M",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Fatalf("FormatBytes(%d) = %q want %q", in, got, want)
		}
	}
}

// TestFormatBytesNegative covers the sign handling for the negative deltas
// size-comparison tables print (positive thresholds are pinned by the
// existing TestFormatBytes).
func TestFormatBytesNegative(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{-512, "-512B"},
		{-(1 << 10), "-1.00K"},
		{-(3 << 20), "-3.00M"},
		{-(5 << 30), "-5.00G"},
		{math.MinInt64, "-8.00EG"},
	}
	for _, tc := range cases {
		if tc.in == math.MinInt64 {
			// Only the sign and magnitude-order matter at the overflow edge;
			// the switch has no EiB tier, so just require no panic and a
			// leading minus.
			got := FormatBytes(tc.in)
			if len(got) == 0 || got[0] != '-' {
				t.Fatalf("FormatBytes(MinInt64) = %q, want negative rendering", got)
			}
			continue
		}
		if got := FormatBytes(tc.in); got != tc.want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", tc.in, tc.want, got)
		}
	}
}
