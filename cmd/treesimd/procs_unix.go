//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU returns the user and system CPU time the process has
// used. getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
var processCPU = func() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
