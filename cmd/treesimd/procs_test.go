package main

import (
	"bytes"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"treesim/internal/telemetry"
)

func TestNextProcs(t *testing.T) {
	for _, c := range []struct {
		p, max int
		used   float64
		want   int
	}{
		{1, 2, 0.76, 1}, // the heaviest workload's peak stays on one P
		{1, 2, 0, 1},
		{1, 2, 0.9, 2},
		{1, 8, 1.0, 2},
		{2, 8, 1.8, 3},
		{2, 8, 1.79, 2},
		{3, 8, 1.79, 2}, // fits under 0.9 of 2
		{3, 8, 1.8, 3},  // does not
		{4, 8, 0.1, 3},  // one step at a time
		{1, 1, 5, 1},    // never above max
		{8, 8, 8, 8},
		{1, 8, -1, 1}, // never below 1
	} {
		if got := nextProcs(c.p, c.max, c.used); got != c.want {
			t.Errorf("nextProcs(%d, %d, %.2f) = %d, want %d", c.p, c.max, c.used, got, c.want)
		}
	}

	// Steady loads whose CPU use grows 25 % with each extra P, up to
	// what the load demands: the count settles within 20 steps and
	// never lowers after a raise.
	for _, max := range []int{1, 2, 4, 16} {
		for _, base := range []float64{0.3, 0.76, 0.9, 1, 1.5} {
			for _, demand := range []float64{0.5, 1, 2.5, 7, 100} {
				use := func(p int) float64 {
					return min(base*math.Pow(1.25, float64(p-1)), demand, float64(p))
				}
				p, raised := 1, false
				var trail []int
				for step := range 40 {
					next := nextProcs(p, max, use(p))
					if next < 1 || next > max {
						t.Fatalf("max %d base %.2f demand %.1f: %d Ps", max, base, demand, next)
					}
					if next < p && raised {
						t.Fatalf("max %d base %.2f demand %.1f: lowered after a raise: %v", max, base, demand, append(trail, next))
					}
					if next != p && step >= 20 {
						t.Fatalf("max %d base %.2f demand %.1f: still moving after 20 steps: %v", max, base, demand, append(trail, next))
					}
					raised = raised || next > p
					trail = append(trail, next)
					p = next
				}
			}
		}
	}
}

// TestGovernorStep drives the governor's loop with ticks and CPU
// readings chosen by the test, so wall and CPU time are both injected:
// one P at start, a raise per interval at ≥ 0.9 of the Ps, a cap at
// max, one P fewer per interval as use falls, and the gauge and the log
// following every change.
func TestGovernorStep(t *testing.T) {
	start := time.Unix(1000, 0)
	// Cores used per interval, and the wall length of each interval.
	used := []float64{0.5, 0.95, 1.9, 2.9, 3.9, 0.5, 0.5, 0.5, 0.5, 0.95}
	walls := []time.Duration{time.Second, time.Second, 2 * time.Second, time.Second, time.Second, time.Second, time.Second, 500 * time.Millisecond, time.Second, time.Second}
	// The start's one P, then every change: +1 at 0.95 and 1.9 (over a
	// 2 s interval) and 2.9 cores, held at max, −1 per interval down to
	// one P, and +1 again.
	want := []int{1, 2, 3, 4, 3, 2, 1, 2}

	var cpu time.Duration
	readings := []time.Duration{cpu}
	tick := make(chan time.Time, len(used))
	now := start
	for i, u := range used {
		now = now.Add(walls[i])
		cpu += time.Duration(u * float64(walls[i]))
		readings = append(readings, cpu)
		tick <- now
	}
	close(tick)
	next := 0
	readCPU := func() time.Duration { next++; return readings[next-1] }
	var sets []int
	set := func(p int) int { sets = append(sets, p); return 0 }
	gauge := telemetry.NewRegistry().Gauge("treesim_daemon_gomaxprocs", "")
	var logs bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logs, nil))

	g := newProcsGovernor(4, readCPU, set, gauge, logger, start)
	if g.p != 1 || gauge.Load() != 1 || !slices.Equal(sets, []int{1}) {
		t.Fatalf("start: p %d, gauge %d, sets %v; want one P", g.p, gauge.Load(), sets)
	}
	g.run(tick)
	if !slices.Equal(sets, want) {
		t.Fatalf("GOMAXPROCS set to %v, want %v", sets, want)
	}
	if next != len(readings) {
		t.Fatalf("%d CPU readings taken, want %d", next, len(readings))
	}
	if gauge.Load() != 2 {
		t.Fatalf("gauge = %d, want 2", gauge.Load())
	}
	changes := strings.Count(logs.String(), "gomaxprocs changed")
	if changes != 7 || !strings.Contains(logs.String(), "from=1 to=2 used_cores=0.95") {
		t.Fatalf("want 7 change records with the use in cores, got:\n%s", logs.String())
	}
}

// TestGOMAXPROCSEnvTurnsGovernorOff checks that GOMAXPROCS in the
// environment leaves the runtime value alone and the gauge reports it.
func TestGOMAXPROCSEnvTurnsGovernorOff(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	t.Setenv("GOMAXPROCS", strconv.Itoa(before+1))
	reg := telemetry.NewRegistry()
	startProcsGovernor(reg, slog.New(slog.DiscardHandler))
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Fatalf("GOMAXPROCS %d → %d with the variable set", before, got)
	}
	if got := reg.Gauge("treesim_daemon_gomaxprocs", "").Load(); got != int64(before) {
		t.Fatalf("treesim_daemon_gomaxprocs = %d, want the runtime's %d", got, before)
	}
}
