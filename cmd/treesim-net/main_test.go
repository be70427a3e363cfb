package main

import (
	"strings"
	"testing"
)

// args parses a command line the way main does.
func args(t *testing.T, cmdline string) options {
	t.Helper()
	o, err := parseArgs(strings.Fields(cmdline))
	if err != nil {
		t.Fatalf("parse %q: %v", cmdline, err)
	}
	return o
}

// TestChaosAndFaultsAreExclusive: asking for both fault schedules is a
// usage error, not one of them silently ignored.
func TestChaosAndFaultsAreExclusive(t *testing.T) {
	if _, err := parseArgs([]string{"-chaos", "-faults"}); err == nil {
		t.Fatal("-chaos -faults parsed; want a usage error")
	}
}

type pin struct {
	what      string
	got, want int
}

func checkPins(t *testing.T, pins []pin) {
	t.Helper()
	for _, p := range pins {
		if p.got != p.want {
			t.Errorf("%s: %d, want %d", p.what, p.got, p.want)
		}
	}
}

// TestPinnedRuns pins what each schedule reports on CI's commands. The
// numbers are a function of the seed alone (timings and the wire's
// duplicate and reorder counts are not, and are not pinned): a change
// that moves one changed what a schedule does or what the overlay routes.
func TestPinnedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full federation runs")
	}
	t.Run("faults seed 1", func(t *testing.T) {
		got, err := runFaults(args(t, "-faults -seed 1"))
		if err != nil {
			t.Fatal(err)
		}
		want := tally{published: 144, delivered: 5384, faults: 1, crashes: 4, recoveries: 4, redelivered: 33}
		if got != want {
			t.Fatalf("%+v, want %+v", got, want)
		}
	})
	if raceEnabled {
		return
	}
	t.Run("chaos line", func(t *testing.T) {
		res, err := runChaos(args(t, "-chaos -topology line -nodes 5 -subs 64 -publish 300 -seed 11"))
		if err != nil {
			t.Fatal(err)
		}
		checkPins(t, []pin{
			{"phase 1 deliveries", res.healthy.got, 1073},
			{"phase 1 ground truth", res.healthy.want, 1073},
			{"in flight at the kill", res.inFlight, 100},
			{"phase 2 deliveries", res.degraded.got, 275},
			{"phase 2 ground truth", res.degraded.want, 990},
			{"phase 2 lost to the outage", res.degraded.lost, 715},
			{"phase 2 extra", res.degraded.extra, 0},
			{"redelivered", res.redelivery.returned, 100},
			{"owed", res.redelivery.owed, 100},
			{"phase 3 lost", res.healed.lost, 0},
			{"phase 3 ground truth", res.healed.want, 1051},
		})
	})
	t.Run("steady", func(t *testing.T) {
		res, err := run(args(t, "-nodes 6 -subs 96 -publish 400"))
		if err != nil {
			t.Fatal(err)
		}
		ovl := res.overlay
		checkPins(t, []pin{
			{"overlay forwards", int(ovl.forwards), 2143},
			{"flooding forwards", int(res.flood.forwards), 5200},
			{"deliveries", ovl.delivered, 4844},
			{"advert messages", int(ovl.advertised), 106},
			{"advert patterns", ovl.advertPats, 41},
			{"traces ok", ovl.tracesChecked - len(ovl.traceProblems), 400},
		})
	})
}
