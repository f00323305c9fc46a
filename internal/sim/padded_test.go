package sim

import (
	"fmt"
	"testing"
)

// TestPaddedIDMatchesFmt: PaddedID gives the bytes of fmt's "%s%0*d"
// at the widths the IDs use, past the padding width too (vm1000,
// i10000).
func TestPaddedIDMatchesFmt(t *testing.T) {
	for _, width := range []int{0, 1, 2, 3, 4} {
		for _, n := range []int{0, 7, 10, 99, 100, 999, 1000, 9999, 10000, 123456} {
			if got, want := PaddedID("id-", n, width), fmt.Sprintf("%s%0*d", "id-", width, n); got != want {
				t.Errorf("PaddedID(id-, %d, %d) = %q, want %q", n, width, got, want)
			}
		}
	}
}
