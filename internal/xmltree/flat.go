package xmltree

import (
	"cmp"
	"slices"

	"treesim/internal/intern"
)

// Flat is a reusable arena view of a packed document: nodes indexed by
// slot with contiguous child ranges, labels, and (when resolved against
// an intern table) dense label symbols. Matching hot paths work over
// Flat so a document is walked with integer indices instead of pointer
// chasing, and label comparisons become symbol comparisons.
//
// Node 0 is the root; the children of node i are the index range
// [ChildStart[i], ChildStart[i]+ChildCount[i]), in document order. A
// Flat is reloaded in place (LoadPacked, Load), so one pooled instance
// serves many documents without reallocating.
type Flat struct {
	// ChildStart / ChildCount delimit each node's children.
	ChildStart []int32
	ChildCount []int32
	// MaxDepth is the deepest node's depth (root = 0); -1 when empty.
	MaxDepth int

	src    []byte   // the bytes loaded
	lab    []uint32 // node i's dictionary index
	dict   []string // the document's labels by dictionary index, aliasing src
	dsym   []uint32 // a dictionary label's symbol
	tbl    *intern.Table
	tblLen int // the labels tbl held when dsym was resolved
	rd     packedReader
	buf    []byte // Load's packing of its tree
}

// Len returns the number of nodes loaded.
func (f *Flat) Len() int { return len(f.lab) }

// Label is node i's label. It aliases the loaded bytes: it holds while
// they stay unchanged, and not past the next load.
func (f *Flat) Label(i int32) string { return f.dict[f.lab[i]] }

// Sym is the interned symbol of node i's label, or intern.NoSym for a
// label unknown to the table last resolved against (or without one).
func (f *Flat) Sym(i int32) uint32 { return f.dsym[f.lab[i]] }

// Packed returns the bytes LoadPacked loaded f from (Pack's form), for a
// caller that needs the document itself: the oracle of a pattern no
// arena matcher compiles, or a publish that keeps the bytes. It is nil
// after Load, whose bytes are f's own and overwritten by its next Load.
func (f *Flat) Packed() []byte { return f.src }

// Load fills f from t, reusing f's storage: it packs t into f's own
// buffer and loads that (LoadPacked). It returns the node count, 0 for
// a nil or empty tree or one deeper than MaxDepth (loaded as empty).
func (f *Flat) Load(t *Tree, tbl *intern.Table) int {
	f.buf = appendPack(f.buf[:0], t)
	n, _ := f.LoadPacked(f.buf, tbl)
	f.src = nil // f's buffer: no caller may keep it (Packed)
	return n
}

// LoadPacked fills f from b, Pack's bytes, in one pass, reusing f's
// storage: it accepts and refuses what Unpack does, and a refused
// document leaves f empty. Labels are resolved against tbl (Resolve).
// It returns the node count (0 for empty b).
func (f *Flat) LoadPacked(b []byte, tbl *intern.Table) (int, error) {
	f.reset()
	r := &f.rd
	dict, err := r.start(b, f.dict, aliasString)
	n := int(r.nodes)
	f.dict, f.lab = dict, slices.Grow(f.lab, n)[:n]
	f.ChildStart, f.ChildCount = slices.Grow(f.ChildStart, n)[:n], slices.Grow(f.ChildCount, n)[:n]
	for err == nil && r.next() {
		f.lab[r.slot], f.ChildStart[r.slot], f.ChildCount[r.slot] = uint32(r.label), int32(r.first), int32(r.kids)
		f.MaxDepth = max(f.MaxDepth, r.depth)
	}
	if err = cmp.Or(err, r.err); err != nil {
		f.reset()
		return 0, err
	}
	f.src = b
	f.Resolve(tbl)
	return n, nil
}

// Resolve sets the symbols Sym reads from tbl, one tbl.Lookup per
// distinct label — never interning, so the table only ever holds
// pattern vocabulary; a nil tbl resolves every label to intern.NoSym. A
// caller matching against a forest whose table grows under a lock
// resolves under that lock.
func (f *Flat) Resolve(tbl *intern.Table) {
	n := 0
	if tbl != nil {
		if n = tbl.Len(); tbl == f.tbl && n == f.tblLen {
			return // resolved against tbl, which has not grown since
		}
	}
	f.tbl, f.tblLen, f.dsym = tbl, n, f.dsym[:0]
	for _, l := range f.dict {
		sym := intern.NoSym
		if tbl != nil {
			sym = tbl.Lookup(l)
		}
		f.dsym = append(f.dsym, sym)
	}
}

// reset empties f, keeping its storage.
func (f *Flat) reset() {
	clear(f.dict) // past the next document's length they would pin the bytes they alias
	f.lab, f.dict, f.dsym = f.lab[:0], f.dict[:0], f.dsym[:0]
	f.ChildStart, f.ChildCount = f.ChildStart[:0], f.ChildCount[:0]
	f.MaxDepth, f.src, f.tbl = -1, nil, nil
}
