package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// args parses a command line the way main does.
func args(t *testing.T, cmdline string) options {
	t.Helper()
	o, _, err := parseArgs(strings.Fields(cmdline))
	if err != nil {
		t.Fatalf("parse %q: %v", cmdline, err)
	}
	return o
}

// TestChaosAndFaultsAreExclusive: asking for both fault schedules is a
// usage error, not one of them silently ignored.
func TestChaosAndFaultsAreExclusive(t *testing.T) {
	if _, _, err := parseArgs([]string{"-chaos", "-faults"}); err == nil {
		t.Fatal("-chaos -faults parsed; want a usage error")
	}
}

// TestDocsNameLiveFlags: the README and CI run treesim-net with flags
// it defines.
func TestDocsNameLiveFlags(t *testing.T) {
	_, fs, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDocFlags(t, "treesim-net", fs)
}

// checkDocFlags fails for every flag that a command line in the README
// or the CI workflow passes to cmd and fs does not define. A command
// line is a line that starts by running cmd (go run ./cmd/cmd, a built
// /path/cmd or bare cmd); its flags are the -name and -name=value tokens
// before the first |, &, ; or \.
func checkDocFlags(t *testing.T, cmd string, fs *flag.FlagSet) {
	t.Helper()
	invocation := regexp.MustCompile(`^\s*(?:go run\s+)?(?:\S*/)?` + regexp.QuoteMeta(cmd) + `(?:\s|$)`)
	flagName := regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=|$)`)
	for _, doc := range []string{"../../README.md", "../../.github/workflows/ci.yml"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for i, line := range strings.Split(string(text), "\n") {
			if !invocation.MatchString(line) {
				continue
			}
			lines++
			if end := strings.IndexAny(line, `|&;\`); end >= 0 {
				line = line[:end]
			}
			for _, tok := range strings.Fields(line) {
				if m := flagName.FindStringSubmatch(tok); m != nil && fs.Lookup(m[1]) == nil {
					t.Errorf("%s:%d: %s has no flag -%s", doc, i+1, cmd, m[1])
				}
			}
		}
		if lines == 0 {
			t.Errorf("%s runs %s nowhere; the check is vacuous", doc, cmd)
		}
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
		checkPins(t, []pin{
			{"overlay forwards", int(res.forwards), 2143},
			{"flooding forwards", int(res.flooding), 5200},
			{"deliveries", res.got, 4844},
			{"ground truth", res.want, 4844},
			{"lost", res.lost, 0},
			{"extra", res.extra, 0},
			{"advert messages", int(res.advertised), 106},
			{"advert patterns", res.advertPats, 41},
			{"traces ok", res.tracesOK, 400},
		})
	})
	// Below threshold 1 each broker routes per community and publishes
	// unverified: the pins are the trade against pattern.Matches.
	t.Run("steady clustered", func(t *testing.T) {
		res, err := run(args(t, "-topology ring -placement roundrobin -threshold 0.5 -check=false -nodes 8 -subs 256 -publish 400"))
		if err != nil {
			t.Fatal(err)
		}
		checkPins(t, []pin{
			{"ground truth", res.want, 15378},
			{"lost", res.lost, 11},
			{"extra", res.extra, 8},
			{"recall ×10⁴", int(math.Round(res.recall() * 1e4)), 9993},
			{"overlay forwards", int(res.forwards), 3600},
			{"flooding forwards", int(res.flooding), 3600},
		})
	})
}

// TestFloodForwards: the closed-form flooding baseline against hand
// counts of one flood, in which every broker forwards once, on first
// receipt, on every link but its arrival one — from an origin at an end
// of the topology and from one in its middle.
func TestFloodForwards(t *testing.T) {
	for _, c := range []struct {
		topology    string
		nodes       int
		end, middle int
	}{
		// 0-1-2-3-4. From 4: 4→3, 3→2, 2→1, 1→0. From 2: 2→1, 2→3,
		// 1→0, 3→4.
		{"line", 5, 4, 4},
		// 0-1: one send either way.
		{"line", 2, 1, 1},
		// Hub 0, leaves 1-4. From leaf 4: 4→0, then 0→1, 0→2, 0→3. From
		// the hub: 0→1, 0→2, 0→3, 0→4.
		{"star", 5, 4, 4},
		// 0-1-2-3-4-0 has no end; from any node: 2 sends from the origin,
		// one onward from each of the other 4, the last two of them into
		// a node the other wave already reached.
		{"ring", 5, 6, 6},
		// 0-1-2-0: 0→1, 0→2, then 1→2 and 2→1, both already reached.
		{"ring", 3, 4, 4},
	} {
		o := args(t, fmt.Sprintf("-topology %s -nodes %d", c.topology, c.nodes))
		edges, err := buildEdges(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := floodForwards(c.nodes, edges); got != c.end || got != c.middle {
			t.Errorf("%s of %d: %d forwards per publication, want %d from an end and %d from the middle",
				c.topology, c.nodes, got, c.end, c.middle)
		}
	}
	// A hop budget below the node count can stop a flood short of a
	// broker, and the closed form with it.
	if _, err := run(args(t, "-nodes 6 -ttl 5")); err == nil || !strings.Contains(err.Error(), "-ttl 5 is below -nodes 6") {
		t.Fatalf("steady with -ttl 5 -nodes 6: %v, want the -ttl rejection", err)
	}
}
