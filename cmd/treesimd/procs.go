package main

// GOMAXPROCS governor. A publish hands work to other goroutines (the
// HTTP server's per-connection background reader, the synopsis
// ingester); with an idle second P each hand-off wakes it, and the
// wake-ups, spinning Ms and cold caches cost more than the work they
// move. So once ready the daemon runs on one P and adds Ps only while
// its traffic keeps the ones it has busy, measured as process CPU time
// per wall second. GOMAXPROCS set in the environment is the operator's
// override and turns the governor off.

import (
	"log/slog"
	"math"
	"os"
	"runtime"
	"time"

	"treesim/internal/telemetry"
)

// procsTarget is the share of its Ps the daemon may keep busy before
// the governor adds one, and the share of one fewer Ps its use must
// fit under before the governor removes one.
const procsTarget = 0.9

// nextProcs returns the P count for the next interval, given p Ps now,
// at most max, and used, the cores the last interval kept busy: one
// more when used reached procsTarget of p, one fewer when used fits
// under procsTarget of p−1, else p. A raise from p needs used ≥ 0.9·p
// and undoing it needs used < 0.9·p, so a load that does not shrink
// when given a P keeps it.
func nextProcs(p, max int, used float64) int {
	switch {
	case used >= procsTarget*float64(p) && p < max:
		return p + 1
	case p > 1 && used < procsTarget*float64(p-1):
		return p - 1
	}
	return p
}

// procsGovernor moves GOMAXPROCS by nextProcs once per tick.
type procsGovernor struct {
	max    int
	cpu    func() time.Duration // process CPU time, user + system
	set    func(int) int        // runtime.GOMAXPROCS
	gauge  *telemetry.Gauge
	logger *slog.Logger

	p     int
	at    time.Time     // wall time of the last reading
	cpuAt time.Duration // CPU time at the last reading
}

// startProcsGovernor registers treesim_daemon_gomaxprocs and, unless
// GOMAXPROCS is in the environment or the platform has no CPU-time
// reader, drops to one P and governs from there for the life of the
// process.
func startProcsGovernor(reg *telemetry.Registry, logger *slog.Logger) {
	gauge := reg.Gauge("treesim_daemon_gomaxprocs",
		"GOMAXPROCS the daemon runs under: set by its CPU-use governor, or by the GOMAXPROCS environment variable, which turns the governor off")
	if os.Getenv("GOMAXPROCS") != "" || processCPU == nil {
		gauge.Set(int64(runtime.GOMAXPROCS(0)))
		return
	}
	g := newProcsGovernor(runtime.NumCPU(), processCPU, runtime.GOMAXPROCS, gauge, logger, time.Now())
	go g.run(time.NewTicker(time.Second).C)
}

func newProcsGovernor(max int, cpu func() time.Duration, set func(int) int, gauge *telemetry.Gauge, logger *slog.Logger, now time.Time) *procsGovernor {
	g := &procsGovernor{max: max, cpu: cpu, set: set, gauge: gauge, logger: logger,
		p: 1, at: now, cpuAt: cpu()}
	set(1)
	gauge.Set(1)
	logger.Info("gomaxprocs governor on", "gomaxprocs", 1, "max", max)
	return g
}

// run moves GOMAXPROCS by nextProcs on every tick, from the CPU time
// burned since the last one, until tick closes.
func (g *procsGovernor) run(tick <-chan time.Time) {
	for now := range tick {
		c := g.cpu()
		used := float64(c-g.cpuAt) / float64(now.Sub(g.at))
		g.at, g.cpuAt = now, c
		next := nextProcs(g.p, g.max, used)
		if next == g.p {
			continue
		}
		g.set(next)
		g.gauge.Set(int64(next))
		g.logger.Info("gomaxprocs changed", "from", g.p, "to", next, "used_cores", math.Round(used*100)/100)
		g.p = next
	}
}
