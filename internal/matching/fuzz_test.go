package matching

import (
	"fmt"
	"strings"
	"testing"

	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

// FuzzEngineVsMatches differentially tests the single-pass forest
// engine against the pattern.Matches oracle: a random document in
// compact form and a newline-separated pattern set must produce
// identical match sets, including after removal/re-add churn
// (exercising the forest's hash-cons reference counting). One of the
// three steps — install, removal, re-add — is a batch install
// (Replace), chosen by the pattern text's length, so the renumbering
// runs on fresh, shrunk and regrown forests. Each check matches the
// document as a tree and as packed bytes loaded with Flat.LoadPacked.
func FuzzEngineVsMatches(f *testing.F) {
	seeds := [][2]string{
		{"a(b,c)", "/a/b\n//c\n/a[b][c]\n/x\n/*"},
		// Root-"//" binds the document root itself; "/." is the empty
		// pattern (matches every non-empty document).
		{"a", "//a\n/.\n/*\n/.[//a]"},
		// Operator-colliding document labels: nodes literally labeled
		// "*" and "//" meet wildcards (match) and tags (never match).
		{"a(*,//)", "/a/*\n/a[//b]\n/.[//a]\n//*"},
		{"r(x(y(z)),w)", "//x//z\n/r[//z][w]\n/r/*/y\n/.[//y][//w]\n//w/*"},
		{"a(b(c),b(d))", "/a//c\n/a/b[c][d]\n//b[c]\n//b/d"},
		// Root-"//" whose kid is node-satisfied only at depth >= 3: the
		// bit has to ride the children's SAT union up to the root.
		{"r(x(y(z(w)),v),u)", "//z/w\n//w\n//z[w]\n//y//w\n//q\n//y/z[w]\n//x[v]//w\n//z/v"},
		manyNodesOneLabel(),
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, docStr, patsStr string) {
		doc, err := xmltree.ParseCompact(docStr)
		if err != nil || doc.Size() > 300 {
			t.Skip()
		}
		var pats []*pattern.Pattern
		for _, ln := range strings.Split(patsStr, "\n") {
			p, err := pattern.Parse(ln)
			if err != nil || p.Size() > 30 {
				continue
			}
			pats = append(pats, p)
			if len(pats) == 24 {
				break
			}
		}
		if len(pats) == 0 {
			t.Skip()
		}

		want := make([]bool, len(pats))
		for i, p := range pats {
			want[i] = pattern.Matches(doc, p)
		}

		batch := len(patsStr) % 3
		forest := NewForest()
		hs := make([]int, len(pats))
		// edit applies one step: drop the handles at the odd indexes or
		// add the patterns there (all of them at step 0), one by one or,
		// at the batch step, as one Replace.
		edit := func(step int, drop bool) {
			var idx []int
			for i := range pats {
				if step == 0 || i%2 == 1 {
					idx = append(idx, i)
				}
			}
			if step != batch {
				for _, i := range idx {
					if drop {
						forest.Remove(hs[i])
						hs[i] = -1
					} else {
						hs[i] = forest.Add(pats[i])
					}
				}
				return
			}
			var dropHs []int
			var add []*pattern.Pattern
			for _, i := range idx {
				if drop {
					dropHs = append(dropHs, hs[i])
					hs[i] = -1
				} else {
					add = append(add, pats[i])
				}
			}
			for j, h := range forest.Replace(dropHs, add) {
				hs[idx[j]] = h
			}
			if !forest.ordered {
				t.Fatalf("step %d: a batch install left ids out of label order", step)
			}
		}
		edit(0, false)
		var flat xmltree.Flat
		check := func(stage string) {
			checkIndex(t, forest)
			// As a tree, and as the packed bytes a publish loads.
			if _, err := flat.LoadPacked(xmltree.Pack(doc), forest.Table()); err != nil {
				t.Fatal(err)
			}
			for _, ms := range []*MatchSet{forest.Match(doc), forest.MatchFlat(nil, &flat)} {
				for i := range pats {
					if got := hs[i] >= 0 && ms.Has(hs[i]); hs[i] >= 0 && got != want[i] {
						t.Fatalf("%s: doc %q pattern %q: forest = %v, oracle = %v",
							stage, docStr, pats[i], got, want[i])
					}
				}
				ms.Release()
			}
		}
		check("initial")
		edit(1, true)
		check("after churn")
		edit(2, false)
		check("after re-add")
	})
}

// manyNodesOneLabel is a seed whose forest carries the label b on 96
// distinct nodes (b over 96 different kids) among ~200 in all, so one
// document label fans out over candidates in several frame words, and
// the matched ones are scattered among them.
func manyNodesOneLabel() [2]string {
	var doc, pats strings.Builder
	doc.WriteString("a(")
	for i := 0; i < 24; i++ {
		if i > 0 {
			pats.WriteByte('\n')
		}
		pats.WriteString("/a")
		for j := 0; j < 4; j++ {
			fmt.Fprintf(&pats, "[b/c%d]", 4*i+j)
		}
		if i%3 == 0 {
			for j := 0; j < 4; j++ {
				fmt.Fprintf(&doc, "b(c%d),", 4*i+j)
			}
		}
	}
	doc.WriteString("b)")
	return [2]string{doc.String(), pats.String()}
}
