package xmltree

import (
	"testing"

	"treesim/internal/intern"
)

func TestFlatLoad(t *testing.T) {
	tr, err := ParseCompact("a(b(d,e),c)")
	if err != nil {
		t.Fatal(err)
	}
	tbl := intern.NewTable()
	symA := tbl.ID("a")
	symD := tbl.ID("d")

	var f Flat
	if n := f.Load(tr, tbl); n != 5 {
		t.Fatalf("Load = %d nodes, want 5", n)
	}
	// BFS order: a, b, c, d, e.
	wantLabels := []string{"a", "b", "c", "d", "e"}
	for i, w := range wantLabels {
		if f.Label(int32(i)) != w {
			t.Fatalf("Label(%d) = %q, want %q", i, f.Label(int32(i)), w)
		}
	}
	if f.Sym(0) != symA || f.Sym(3) != symD {
		t.Errorf("Sym(0), Sym(3) = %d, %d, want a=%d, d=%d", f.Sym(0), f.Sym(3), symA, symD)
	}
	if f.Sym(1) != intern.NoSym || f.Sym(2) != intern.NoSym {
		t.Errorf("unknown labels must map to NoSym, got %d, %d", f.Sym(1), f.Sym(2))
	}
	if tbl.Len() != 2 {
		t.Errorf("Load interned document labels: table Len = %d, want 2", tbl.Len())
	}
	// Children of a (node 0) are nodes 1..2; of b (node 1) are 3..4.
	if f.ChildStart[0] != 1 || f.ChildCount[0] != 2 {
		t.Errorf("root children = [%d,+%d), want [1,+2)", f.ChildStart[0], f.ChildCount[0])
	}
	if f.ChildStart[1] != 3 || f.ChildCount[1] != 2 {
		t.Errorf("b children = [%d,+%d), want [3,+2)", f.ChildStart[1], f.ChildCount[1])
	}
	if f.ChildCount[2] != 0 || f.ChildCount[4] != 0 {
		t.Error("leaves must have zero children")
	}
	if f.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", f.MaxDepth)
	}

	// Reload in place with a different shape and no table.
	tr2, _ := ParseCompact("x")
	if n := f.Load(tr2, nil); n != 1 {
		t.Fatalf("reload = %d nodes, want 1", n)
	}
	if f.Sym(0) != intern.NoSym || f.Label(0) != "x" || f.MaxDepth != 0 {
		t.Errorf("reload state: label=%q sym=%d depth=%d", f.Label(0), f.Sym(0), f.MaxDepth)
	}

	if n := f.Load(nil, nil); n != 0 || f.MaxDepth != -1 {
		t.Errorf("nil tree: n=%d depth=%d", n, f.MaxDepth)
	}
}
