package main

import (
	"fmt"
	"math"

	"treesim"
	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

// scale sizes a run. Everything but the smoke test uses fullScale.
type scale struct {
	subs       int // population per workload
	docs       int // D distinct documents, cycled; also W, the warm stream
	setups     int // set-ups per run; setup_s is their median
	churnEvery int // publishes per churn pair
}

var (
	fullScale  = scale{subs: 1000, docs: 500, setups: 3, churnEvery: 250}
	smokeScale = scale{subs: 50, docs: 60, setups: 1, churnEvery: 50}
)

// document is one generated input in the three forms the harness needs:
// the text a publisher sends, the tree the oracle and the replays read,
// and the canonical text that identifies it on a remote broker.
type document struct {
	xml   string
	tree  *xmltree.Tree
	canon string
	probe bool // the probe subscription wants it
}

// subSpec is one subscription to place during set-up.
type subSpec struct {
	daemon int // index into the workload's daemons
	pat    *pattern.Pattern
	expr   string
	acked  bool
	probe  bool
}

// inputs is everything generated from the seed. The daemons see nothing
// else.
type inputs struct {
	docs    []document
	pop     []subSpec          // initial population, in subscribe order
	reserve []*pattern.Pattern // churn-mix: fresh patterns for resubscribes
}

func canonical(t *xmltree.Tree) (string, error) {
	return xmltree.XMLString(t.Canonicalize(), false)
}

// docBatches is how many independently seeded batches a document stream
// is drawn from. GenerateDocuments calibrates its generator on a
// 40-document pilot per seed, and the mean document size it lands on
// swings two to one between seeds; drawn from ten batches, a seed
// decides which documents the stream holds, not how heavy all of it is.
const docBatches = 10

// distinctDocs generates n documents with pairwise different canonical
// forms (the NITF-like generator repeats small documents), so that a
// document is identifiable by content and "delivered once" is checkable.
func distinctDocs(d *treesim.DTD, n int, seed int64) ([]document, error) {
	seen := map[string]bool{}
	var out []document
	per := (n + docBatches - 1) / docBatches
	for batch := int64(0); len(out) < n && batch < 4*docBatches; batch++ {
		took := 0
		for _, t := range treesim.GenerateDocuments(d, 2*per, seed*1000+batch) {
			c, err := canonical(t)
			if err != nil {
				return nil, err
			}
			if seen[c] {
				continue
			}
			seen[c] = true
			s, err := treesim.XMLString(t)
			if err != nil {
				return nil, err
			}
			out = append(out, document{xml: s, tree: t, canon: c})
			if took++; took == per || len(out) == n {
				break
			}
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("generator %s gave only %d distinct documents of %d", d.Name, len(out), n)
	}
	return out, nil
}

func specs(ps []*pattern.Pattern, daemon int) []subSpec {
	out := make([]subSpec, len(ps))
	for i, p := range ps {
		out[i] = subSpec{daemon: daemon, pat: p, expr: p.String()}
	}
	return out
}

// ownSchemaOnly keeps the first n generated patterns that match no
// document of the other schema's stream. About one generated pattern in
// a hundred is rooted at a wildcard ("/*") and wants every document;
// with one of those at C nothing can be pruned and fed-line3 measures
// flooding, not content-based forwarding.
func ownSchemaOnly(ps []*pattern.Pattern, foreign []document, n int) ([]*pattern.Pattern, error) {
	var out []*pattern.Pattern
	for _, p := range ps {
		crosses := false
		for _, d := range foreign {
			if pattern.Matches(d.tree, p) {
				crosses = true
				break
			}
		}
		if !crosses {
			if out = append(out, p); len(out) == n {
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("only %d of %d generated patterns stay within their schema, want %d", len(out), len(ps), n)
}

// probeShare is the share of the document stream the probe subscription
// wants. Connection 2 long-polls the probe and wakes for every delivery;
// a probe on the root element woke it once per publish, a second closed
// loop as busy as the publisher on a two-core box, and what the run then
// measured was how the scheduler split the cores between them.
const probeShare = 0.08

// probeSpec picks the probe: the root-to-node label path held by the
// share of docs closest to probeShare (ties: the shorter path, then the
// alphabetically first), and marks the documents it wants.
func probeSpec(docs []document, daemon int) subSpec {
	holders := map[string]int{}
	for _, d := range docs {
		for _, p := range d.tree.LabelPaths() {
			holders[p]++
		}
	}
	target := probeShare * float64(len(docs))
	off := func(p string) float64 { return math.Abs(float64(holders[p]) - target) }
	best := ""
	for p := range holders {
		if _, err := pattern.Parse(p); err != nil {
			continue
		}
		switch {
		case best == "", off(p) < off(best):
			best = p
		case off(p) > off(best):
		case len(p) < len(best), len(p) == len(best) && p < best:
			best = p
		}
	}
	pat := pattern.MustParse(best)
	for i := range docs {
		docs[i].probe = pattern.Matches(docs[i].tree, pat)
	}
	return subSpec{daemon: daemon, pat: pat, expr: pat.String(), probe: true}
}

// makeInputs derives a workload's documents and population from the seed.
func makeInputs(workload string, sc scale, seed int64, reserve int) (*inputs, error) {
	nitf := treesim.NITFLikeDTD()
	in := &inputs{}
	if workload == wFed {
		// Line A–B–C (daemons 0,1,2): xCBL-like subscriptions at B,
		// NITF-like ones and the probe at C, a 50/50 stream published at A.
		xcbl := treesim.XCBLLikeDTD()
		half := sc.subs / 2
		nd, err := distinctDocs(nitf, sc.docs/2, seed+1)
		if err != nil {
			return nil, err
		}
		xd, err := distinctDocs(xcbl, sc.docs/2, seed+3)
		if err != nil {
			return nil, err
		}
		xp, err := ownSchemaOnly(treesim.GeneratePatterns(xcbl, 2*half, seed+2), nd, half)
		if err != nil {
			return nil, err
		}
		np, err := ownSchemaOnly(treesim.GeneratePatterns(nitf, 2*half, seed), xd, half)
		if err != nil {
			return nil, err
		}
		in.pop = append(in.pop, specs(xp, 1)...)
		in.pop = append(in.pop, specs(np, 2)...)
		in.pop = append(in.pop, probeSpec(nd, 2))
		for i := range nd {
			in.docs = append(in.docs, nd[i], xd[i])
		}
		return in, nil
	}
	ps := treesim.GeneratePatterns(nitf, sc.subs+reserve, seed)
	if len(ps) < sc.subs+reserve {
		return nil, fmt.Errorf("pattern generator gave %d of %d patterns", len(ps), sc.subs+reserve)
	}
	in.pop = specs(ps[:sc.subs], 0)
	in.reserve = ps[sc.subs:]
	docs, err := distinctDocs(nitf, sc.docs, seed+1)
	if err != nil {
		return nil, err
	}
	in.docs = docs
	switch workload {
	case wFanout:
		in.pop = append(in.pop, probeSpec(in.docs, 0))
	case wAcked:
		for i := range in.pop {
			in.pop[i].acked = i%10 == 0
		}
	}
	return in, nil
}
