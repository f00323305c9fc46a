package sim

import "strconv"

// PaddedID returns prefix followed by n in decimal, zero-padded to width
// digits: the bytes of fmt.Sprintf("%s%0*d", prefix, width, n), for a
// non-negative n, without fmt. Per-run IDs (VMs, cloud leases,
// applications) are built with it.
func PaddedID(prefix string, n, width int) string {
	var buf [48]byte
	b := append(buf[:0], prefix...)
	digits := 1
	for x := n; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(n), 10))
}
