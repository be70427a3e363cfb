package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// referenceParse is the encoding/xml parser Parse used to be, kept
// verbatim as the reference the hand-written scanner is fuzzed against
// (FuzzParseVsReference): same accept/reject, same tree.
func referenceParse(r io.Reader, opts ParseOptions) (*Tree, error) {
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Label: t.Name.Local}
			if opts.AttributesAsNodes {
				for _, a := range t.Attr {
					an := n.AddChild("@" + a.Name.Local)
					if opts.TextAsNodes && a.Value != "" {
						an.AddChild(a.Value)
					}
				}
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: parse: multiple root elements")
				}
				root = n
			} else {
				p := stack[len(stack)-1]
				p.Children = append(p.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if !opts.TextAsNodes || len(stack) == 0 {
				continue
			}
			txt := strings.TrimSpace(string(t))
			if txt == "" {
				continue
			}
			p := stack[len(stack)-1]
			p.AddChild(txt)
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: parse: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unexpected EOF inside element %q", stack[len(stack)-1].Label)
	}
	return &Tree{Root: root}, nil
}
