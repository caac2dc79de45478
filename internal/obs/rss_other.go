//go:build !linux

package obs

// peakRSSMB reports 0 where ru_maxrss is not read: its unit differs
// between platforms (bytes on Darwin) and Windows has no getrusage.
func peakRSSMB() float64 { return 0 }
