//go:build !unix

package main

import "time"

// processCPU is nil where the daemon has no CPU-time reader, which
// keeps the GOMAXPROCS governor off.
var processCPU func() time.Duration
