package obs

import "syscall"

// peakRSSMB is the process's peak resident set size (getrusage
// ru_maxrss, which Linux reports in KiB), in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
