package broker

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"treesim/internal/core"
	"treesim/internal/persist"
)

// The golden data dir (testdata/golden/datadir) is what goldenHistory
// wrote through an engine built before communities were kept as
// records (commit b74d74b), and testdata/golden/recovered.json is what
// that build's Recover made of it (goldenRecover). A data dir written by
// that layout must recover to the same communities — positional index,
// representative, members — the same per-subscription ledgers and the
// same redelivered flags.

func goldenConfig() Config {
	return Config{Rebuild: Never{}, Estimator: core.Config{Representation: core.Sets, Seed: 1}}
}

// goldenHistory drives a journaled engine through a snapshot and a WAL
// tail that hold both delivery modes, a representative handover, a
// dissolve that shifts later community indices, a forced rebuild, and an
// at-least-once window drained but never acked, then drops the engine
// without a final snapshot.
func goldenHistory(t *testing.T, dir string) {
	t.Helper()
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(goldenConfig())
	e.SetJournal(store)
	publish := func(counts map[string]int) {
		t.Helper()
		for _, compact := range []string{"a(b(x),c)", "a(b)", "d(e)", "f(g)"} {
			for range counts[compact] {
				if _, err := e.Publish(doc(t, compact)); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.Flush()
	}
	sub := func(expr string, mode DeliveryMode) uint64 {
		t.Helper()
		id, err := e.SubscribeOpts(expr, SubscribeOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	drain := func(id uint64, max int, ack bool) {
		t.Helper()
		r, err := e.DrainBatch(id, max, 0)
		if err != nil || len(r.Deliveries) == 0 {
			t.Fatalf("drain %d: %+v, %v", id, r, err)
		}
		if !ack {
			return
		}
		if _, err := e.Ack(id, r.Cursor); err != nil {
			t.Fatal(err)
		}
	}
	// first returns the first community keep accepts, failing the
	// history if it accepts none.
	first := func(what string, keep func(c CommunityInfo, last bool) bool) CommunityInfo {
		t.Helper()
		cs := e.IntrospectCommunities()
		for i, c := range cs {
			if keep(c, i == len(cs)-1) {
				return c
			}
		}
		t.Fatalf("no %s among %+v", what, cs)
		return CommunityInfo{}
	}

	publish(map[string]int{"a(b(x),c)": 8, "a(b)": 4, "d(e)": 6, "f(g)": 4})
	sub("/a/b", AtMostOnce)
	sub("//zzz", AtMostOnce)
	acked := sub("/a/b[x]", AtLeastOnce)
	sub("/d/e", AtMostOnce)
	partial := sub("/a[c]/b", AtLeastOnce)
	unacked := sub("//e", AtLeastOnce)
	sub("/f/g", AtMostOnce)
	publish(map[string]int{"a(b(x),c)": 2, "d(e)": 1, "f(g)": 1})
	drain(acked, 0, true)
	if err := e.WriteSnapshot(store, 0, 0); err != nil {
		t.Fatal(err)
	}

	sub("//b", AtLeastOnce)
	e.Rebuild()
	handover := first("community of several", func(c CommunityInfo, _ bool) bool { return c.Size > 1 })
	if !e.Unsubscribe(handover.RepID) {
		t.Fatalf("unsubscribe representative %d", handover.RepID)
	}
	dissolve := first("singleton before the last community", func(c CommunityInfo, last bool) bool { return c.Size == 1 && !last })
	if !e.Unsubscribe(dissolve.RepID) {
		t.Fatalf("unsubscribe singleton %d", dissolve.RepID)
	}
	sub("//g", AtMostOnce)
	sub("//nothing", AtLeastOnce)
	publish(map[string]int{"a(b(x),c)": 2, "a(b)": 1, "d(e)": 1, "f(g)": 1})
	drain(unacked, 0, false)
	drain(partial, 1, true)
	e.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// goldenState is what a recovered engine shows: its introspection, then
// one drain of every at-least-once subscription, by id.
type goldenState struct {
	Communities   []CommunityInfo
	Subscriptions []SubscriptionInfo
	Drains        map[uint64]DrainResult
}

// goldenRecover recovers dir and observes the engine.
func goldenRecover(t *testing.T, dir string) []byte {
	t.Helper()
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	e, _, err := Recover(goldenConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	checkForests(t, e)
	st := goldenState{Communities: e.IntrospectCommunities(), Subscriptions: e.IntrospectSubscriptions(), Drains: map[uint64]DrainResult{}}
	for _, s := range st.Subscriptions {
		if s.Mode == AtLeastOnce.String() {
			r, err := e.DrainBatch(s.ID, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			st.Drains[s.ID] = r
		}
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestRecoverGoldenDataDir recovers the data dir the earlier layout
// wrote and compares what the engine shows with what that layout's own
// recovery showed. It then runs the same history on this build: its data
// dir must recover to the same state.
func TestRecoverGoldenDataDir(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "recovered.json"))
	if err != nil {
		t.Fatal(err)
	}
	old := t.TempDir()
	if err := os.CopyFS(old, os.DirFS(filepath.Join("testdata", "golden", "datadir"))); err != nil {
		t.Fatal(err)
	}
	if got := goldenRecover(t, old); !bytes.Equal(got, want) {
		t.Errorf("recovering the golden data dir:\n%s\nwant:\n%s", got, want)
	}
	fresh := t.TempDir()
	goldenHistory(t, fresh)
	if got := goldenRecover(t, fresh); !bytes.Equal(got, want) {
		t.Errorf("recovering this build's run of the same history:\n%s\nwant:\n%s", got, want)
	}
}
