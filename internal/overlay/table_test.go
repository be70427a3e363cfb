package overlay

import (
	"testing"

	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

// TestLinkForestMatchAnyExcept covers the three outcomes of the
// forward-plan test: a document no aggregate matches, one only the
// publication's own origin wants, and one another origin wants.
func TestLinkForestMatchAnyExcept(t *testing.T) {
	pats := func(exprs ...string) []*pattern.Pattern {
		out := make([]*pattern.Pattern, len(exprs))
		for i, e := range exprs {
			p, err := pattern.Parse(e)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = p
		}
		return out
	}
	doc := func(compact string) *xmltree.Tree {
		d, err := xmltree.ParseCompact(compact)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	lf := newLinkForest()
	lf.set("A", 1, pats("/a/b", "//x"))
	lf.set("B", 1, pats("/a/c", "//x"))
	lf.set("gone", 1, nil) // a tombstone attracts nothing

	for _, c := range []struct {
		name, doc, exclude string
		want               bool
	}{
		{"miss", "q(r)", "A", false},
		{"hit on the excluded origin only", "a(b)", "A", false},
		{"hit on another origin", "a(b)", "B", true},
		{"hit on both, one excluded", "a(x)", "A", true},
		{"nothing excluded", "a(c)", "", true},
	} {
		if got := lf.matchAnyExcept(doc(c.doc), c.exclude); got != c.want {
			t.Errorf("%s: matchAnyExcept(%s, exclude %q) = %v, want %v", c.name, c.doc, c.exclude, got, c.want)
		}
	}
}
