package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"treesim/internal/broker"
)

// parseFlags runs newDaemon on args with a flag set that reports
// instead of exiting.
func parseFlags(args ...string) (*daemon, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("treesimd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d, err := newDaemon(fs, args)
	return d, fs, err
}

// TestNewDaemonFlags pins the command line: the flags' names and
// defaults, the inputs that are configuration errors, and how the
// rebuild and advert policies map. main exits 2 on every newDaemon
// error; under main's ExitOnError flag set a bad flag exits 2 and -h
// (flag.ErrHelp here) exits 0 inside Parse.
func TestNewDaemonFlags(t *testing.T) {
	_, fs, err := parseFlags()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	want := []string{
		"ack-lease=30s", "addr=127.0.0.1:8690",
		"advert-ttl=1m0s", "data-dir=", "debug-addr=",
		"event-capacity=0", "fault-disk=", "federate=false", "hash-capacity=1000",
		"id=", "ingest-queue=1024", "log-format=text", "log-level=info",
		"max-body=1048576", "peer-addr=", "peer-timeout=5s",
		"peers=", "queue=256", "rebuild-stale=0",
		"representation=hashes", "seed=1", "set-capacity=1000", "snapshot-interval=1m0s",
		"threshold=0.99", "trace-capacity=0", "ttl=16", "wal-sync=false",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags and defaults:\n got %v\nwant %v", got, want)
	}

	if _, _, err := parseFlags("-h"); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-representation", "bogus"},
		{"-metric", "m3"},
		{"-rebuild-fraction", "0.25"},
		{"-advert-stale", "1"},
		{"-delivery-mode", "at-least-once"},
		{"-log-level", "loud"},
		{"-fault-disk", "wal.sync:fail@2"}, // without -data-dir
	} {
		if _, _, err := parseFlags(args...); err == nil || errors.Is(err, flag.ErrHelp) {
			t.Errorf("%v: error %v, want a configuration error", args, err)
		}
	}

	d, _, err := parseFlags()
	if err != nil {
		t.Fatal(err)
	}
	if d.cfg.Rebuild != nil || d.ocfg.AdvertPolicy != nil {
		t.Errorf("default policies %#v, %#v; want the engine's and the overlay's own", d.cfg.Rebuild, d.ocfg.AdvertPolicy)
	}
	for _, c := range []struct {
		args []string
		want broker.RebuildPolicy
	}{
		{[]string{"-rebuild-stale", "5"}, broker.Staleness{MaxStale: 5}},
	} {
		if d, _, err = parseFlags(c.args...); err != nil {
			t.Fatal(err)
		}
		if d.ocfg.AdvertPolicy != c.want || d.cfg.Rebuild != nil {
			t.Errorf("%v: advert policy %#v, rebuild policy %#v; want %#v, nil", c.args, d.ocfg.AdvertPolicy, d.cfg.Rebuild, c.want)
		}
	}
}

// daemonRun is one daemon serving on a loopback port in the background.
type daemonRun struct {
	d      *daemon
	url    string
	cancel context.CancelFunc
	done   chan struct{} // closed when run returns, err set
	err    error
}

// startDaemon runs a daemon built from args on 127.0.0.1:0 and returns
// once it is ready. It checks that /healthz answers 503 "starting" from
// the moment the listener is bound until recovery finishes.
func startDaemon(t *testing.T, args ...string) *daemonRun {
	t.Helper()
	d, _, err := parseFlags(append([]string{"-addr", "127.0.0.1:0", "-log-level", "error"}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	bound := make(chan string, 1)
	d.listening = func(addr string) {
		if code, body := call("GET", "http://"+addr+"/healthz", ""); code != http.StatusServiceUnavailable || !strings.Contains(body, `"status":"starting"`) {
			t.Errorf("healthz before recovery = %d %s, want 503 starting", code, body)
		}
		bound <- addr
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &daemonRun{d: d, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.err = d.run(ctx)
	}()
	t.Cleanup(func() { r.stop(t) })
	select {
	case addr := <-bound:
		r.url = "http://" + addr
	case <-r.done:
		t.Fatalf("run returned before binding: %v", r.err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		code, body := call("GET", r.url+"/healthz", "")
		if code == http.StatusOK && strings.Contains(body, `"status":"ok"`) {
			return r
		}
		if time.Now().After(deadline) {
			t.Fatalf("never ready: healthz %d %s", code, body)
		}
	}
}

// stop cancels run's context and waits for it to return nil.
func (r *daemonRun) stop(t *testing.T) {
	t.Helper()
	r.cancel()
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	if r.err != nil {
		t.Fatalf("run returned %v, want nil", r.err)
	}
}

// call sends one request and returns the status and body (0 and the
// error when the request fails).
func call(method, url, body string) (int, string) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, err.Error()
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

// mustCall is call that fails the test on any status but want.
func mustCall(t *testing.T, want int, method, url, body string) string {
	t.Helper()
	code, resp := call(method, url, body)
	if code != want {
		t.Fatalf("%s %s = %d %s, want %d", method, url, code, resp, want)
	}
	return resp
}

// drained decodes a GET /deliveries answer.
type drained struct {
	Deliveries []broker.Delivery `json:"deliveries"`
}

func drain(t *testing.T, url string) drained {
	t.Helper()
	var dr drained
	if err := json.Unmarshal([]byte(mustCall(t, http.StatusOK, "GET", url, "")), &dr); err != nil {
		t.Fatal(err)
	}
	return dr
}

// waitParked waits until some goroutine is inside Engine.DrainBatch —
// with nothing to deliver, a long-poll parked there.
func waitParked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("broker.(*Engine).DrainBatch")) {
			return
		}
	}
	t.Fatal("the long-poll never parked")
}

// TestDocsNameLiveFlags: the README and CI run treesimd with flags it
// defines.
func TestDocsNameLiveFlags(t *testing.T) {
	_, fs, err := parseFlags()
	if err != nil {
		t.Fatal(err)
	}
	checkDocFlags(t, "treesimd", fs)
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

// TestDaemonLifecycle drives run end to end: readiness, an ordered
// shutdown that wakes a parked long-poll, recovery of the subscriptions
// and the unacked at-least-once window on the same data dir with the
// overlay epoch floored above the first run, and a disk fault turning
// /healthz degraded while the daemon keeps serving.
func TestDaemonLifecycle(t *testing.T) {
	// GOMAXPROCS in the environment keeps the governor off, so run
	// leaves this test binary's Ps alone.
	t.Setenv("GOMAXPROCS", strconv.Itoa(runtime.GOMAXPROCS(0)))
	dir := t.TempDir()

	first := startDaemon(t, "-federate", "-data-dir", dir)
	mustCall(t, http.StatusOK, "POST", first.url+"/subscribe", `{"pattern": "/a/b"}`)                          // id 1
	mustCall(t, http.StatusOK, "POST", first.url+"/subscribe", `{"pattern": "/a/b", "mode": "at-least-once"}`) // id 2
	for range 2 {
		if body := mustCall(t, http.StatusOK, "POST", first.url+"/publish", "<a><b/></a>"); !strings.Contains(body, `"deliveries":2`) {
			t.Fatalf("publish: %s, want both subscriptions delivered", body)
		}
	}
	if dr := drain(t, first.url+"/deliveries/2"); len(dr.Deliveries) != 2 {
		t.Fatalf("at-least-once drain: %+v, want 2 deliveries", dr)
	}
	if dr := drain(t, first.url+"/deliveries/1"); len(dr.Deliveries) != 2 {
		t.Fatalf("at-most-once drain: %+v, want 2 deliveries", dr)
	}
	polled := make(chan string, 1)
	go func() {
		code, body := call("GET", first.url+"/deliveries/1?wait=30s", "")
		polled <- strconv.Itoa(code) + " " + body
	}()
	waitParked(t)
	start := time.Now()
	first.stop(t)
	select {
	case got := <-polled:
		if !strings.HasPrefix(got, "200 ") || !strings.Contains(got, `"deliveries":[]`) {
			t.Errorf("long-poll woken by shutdown answered %s, want 200 and no deliveries", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not wake the parked long-poll")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("shutdown took %v", took)
	}
	advertVersion, _ := first.d.node.Epoch()

	second := startDaemon(t, "-federate", "-data-dir", dir)
	var subs struct {
		Subscriptions []broker.SubscriptionInfo `json:"subscriptions"`
	}
	if err := json.Unmarshal([]byte(mustCall(t, http.StatusOK, "GET", second.url+"/introspect/subscriptions", "")), &subs); err != nil {
		t.Fatal(err)
	}
	if len(subs.Subscriptions) != 2 {
		t.Fatalf("recovered %d subscriptions, want 2", len(subs.Subscriptions))
	}
	dr := drain(t, second.url+"/deliveries/2")
	if len(dr.Deliveries) != 2 || !dr.Deliveries[0].Redelivered || !dr.Deliveries[1].Redelivered {
		t.Fatalf("recovered at-least-once drain: %+v, want the 2 unacked deliveries flagged redelivered", dr)
	}
	second.stop(t)
	if floor := second.d.ocfg.MinEpoch; floor < advertVersion {
		t.Errorf("recovered epoch floor %d, below the first run's advert version %d", floor, advertVersion)
	}

	faulty := startDaemon(t, "-data-dir", t.TempDir(), "-wal-sync", "-fault-disk", "wal.sync:fail@1")
	mustCall(t, http.StatusOK, "POST", faulty.url+"/subscribe", `{"pattern": "/a/b"}`) // journals nothing, latches the store
	if body := mustCall(t, http.StatusServiceUnavailable, "GET", faulty.url+"/healthz", ""); !strings.Contains(body, `"status":"degraded"`) || !strings.Contains(body, "store failed") {
		t.Errorf("healthz after the disk fault: %s, want degraded naming the failed store", body)
	}
	mustCall(t, http.StatusOK, "GET", faulty.url+"/stats", "")
}
