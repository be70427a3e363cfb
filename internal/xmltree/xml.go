package xmltree

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// ParseOptions controls how raw XML is mapped onto the structural tree
// model.
type ParseOptions struct {
	// TextAsNodes promotes non-whitespace character data to leaf nodes
	// labeled by the trimmed text. This mirrors the paper's Figure 1,
	// where values such as "Mozart" appear as labeled leaves.
	TextAsNodes bool
	// AttributesAsNodes promotes attributes to child nodes labeled
	// "@name" with a single child holding the value (when TextAsNodes is
	// set) or no children otherwise.
	AttributesAsNodes bool
}

// MaxDepth bounds the depth of a tree made from bytes that entered the
// process, because matching sizes scratch per level: Parse refuses
// elements nested deeper than MaxDepth-2 (room for an attribute node and
// its value under the innermost), Unpack a tree deeper than MaxDepth.
// Generated NITF and xCBL documents are about 10 deep.
const MaxDepth = 2048

// ErrTooDeep is the error for a document nested deeper than MaxDepth.
var ErrTooDeep = fmt.Errorf("xmltree: document nested deeper than %d", MaxDepth)

// Parse reads the whole of r, which must hold one XML document, and
// returns its tree: Unpack of ParsePacked. MaxDepth apart, it accepts
// and rejects exactly what encoding/xml's strict decoder does
// (FuzzParseVsReference): elements and attributes with valid XML 1.0
// names, character data with the five predefined entities and numeric
// character references, CDATA sections, comments, processing
// instructions, an XML declaration naming version 1.0 and UTF-8, and
// <!DOCTYPE …> with a nested internal subset; input must be UTF-8.
// Prefixes are stripped to local names (an end tag must repeat its start
// tag's full name); comments, processing instructions and directives are
// ignored, as is text outside the root element.
//
// The tree is built into two slabs sized exactly for the document, one
// of nodes and one of child pointers, so holding any node keeps all of
// the document's nodes alive. A node's Children has no spare capacity:
// appending to it reallocates that list and touches no sibling. Labels
// never alias the input.
func Parse(r io.Reader, opts ParseOptions) (*Tree, error) {
	b, err := ParsePacked(r, opts)
	if err != nil {
		return nil, err
	}
	return Unpack(b)
}

// ParseString is Parse over a string.
func ParseString(s string, opts ParseOptions) (*Tree, error) {
	return Parse(strings.NewReader(s), opts)
}

// ParsePacked is Parse straight to Pack's bytes, byte for byte
// Pack(Parse(r)), with no tree in between: the scanner records the
// nodes in pre-order, so they are encoded as they stand.
func ParsePacked(r io.Reader, opts ParseOptions) ([]byte, error) {
	sc := scanners.Get().(*scanner)
	defer sc.release()
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	if err := sc.scan(sc.body.Bytes(), opts); err != nil {
		return nil, err
	}
	p := packers.Get().(*packer)
	for i, n := range sc.nodes {
		// The key aliases sc.labels, which finish outlives unchanged.
		p.add(aliasString(sc.label(i)), int(n.kids))
	}
	return p.finish(nil), nil
}

// scanner is a single-pass XML scanner. It records the tree in pooled
// scratch, each node's label and child count in pre-order.
type scanner struct {
	b    []byte // the document; read-only, dropped on release
	pos  int    // start of the construct being scanned
	opts ParseOptions

	nodes  []protoNode // in document order; the root is nodes[0]
	open   []openElem
	text   []byte       // expanded character data
	key    []byte       // "@name"
	labels []byte       // every node's label, back to back
	body   bytes.Buffer // ParsePacked's read buffer
}

type protoNode struct {
	labelOff, labelEnd int32 // its label is labels[labelOff:labelEnd]
	kids               int32
}

// label is node i's label, aliasing sc.labels.
func (sc *scanner) label(i int) []byte { return sc.labels[sc.nodes[i].labelOff:sc.nodes[i].labelEnd] }

type openElem struct {
	node             int32
	kids             int32 // children so far
	nameOff, nameEnd int   // full start-tag name, for the end tag
}

var scanners = sync.Pool{New: func() any { return new(scanner) }}

// Scratch larger than this is dropped rather than pooled, so one huge
// document does not stay resident: 1 MiB (treesimd's default -max-body)
// is far above any workload document (≈1.4 KB, ≈110 nodes).
const (
	maxPooledBody  = 1 << 20
	maxPooledNodes = maxPooledBody / 8
)

func (sc *scanner) release() {
	if sc.body.Cap() > maxPooledBody || cap(sc.labels) > maxPooledBody || cap(sc.nodes) > maxPooledNodes {
		return
	}
	sc.b = nil
	scanners.Put(sc)
}

func (sc *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("xmltree: parse: offset %d: %s", sc.pos, fmt.Sprintf(format, args...))
}

// scan records the document b holds.
func (sc *scanner) scan(b []byte, opts ParseOptions) error {
	sc.b, sc.pos, sc.opts = b, 0, opts
	sc.nodes, sc.open, sc.labels = sc.nodes[:0], sc.open[:0], sc.labels[:0]
	for sc.pos < len(b) {
		var err error
		switch {
		case b[sc.pos] != '<':
			end := bytes.IndexByte(b[sc.pos:], '<')
			if end < 0 {
				end = len(b) - sc.pos
			}
			err = sc.charData(b[sc.pos:sc.pos+end], inContent)
			sc.pos += end
		case sc.pos+1 == len(b):
			err = sc.errorf("unexpected EOF")
		case b[sc.pos+1] == '/':
			err = sc.endTag()
		case b[sc.pos+1] == '?':
			err = sc.procInst()
		case b[sc.pos+1] == '!':
			err = sc.bang()
		default:
			err = sc.startTag()
		}
		if err != nil {
			return err
		}
	}
	if len(sc.nodes) == 0 {
		return sc.errorf("no root element")
	}
	if len(sc.open) != 0 {
		return sc.errorf("unexpected EOF inside element %q", sc.label(int(sc.open[len(sc.open)-1].node)))
	}
	return nil
}

// add records a node with the given child count under the innermost
// open element (when parent) and returns its index.
func (sc *scanner) add(label []byte, kids int32, parent bool) int32 {
	if n := len(sc.open); parent && n > 0 {
		sc.open[n-1].kids++
	}
	off := int32(len(sc.labels))
	sc.labels = append(sc.labels, label...)
	sc.nodes = append(sc.nodes, protoNode{off, int32(len(sc.labels)), kids})
	return int32(len(sc.nodes) - 1)
}

// finish closes the innermost open element, its child count now known.
func (sc *scanner) finish() {
	e := sc.open[len(sc.open)-1]
	sc.open = sc.open[:len(sc.open)-1]
	sc.nodes[e.node].kids = e.kids
}

func (sc *scanner) startTag() error {
	b := sc.b
	nameEnd, local, ok := scanQName(b, sc.pos+1)
	if !ok {
		return sc.errorf("invalid element name")
	}
	if len(sc.open) == 0 && len(sc.nodes) > 0 {
		return sc.errorf("multiple root elements")
	}
	if len(sc.open) == MaxDepth-2 {
		return ErrTooDeep
	}
	sc.open = append(sc.open, openElem{node: sc.add(local, 0, true), nameOff: sc.pos + 1, nameEnd: nameEnd})
	for i := nameEnd; ; {
		i = skipSpace(b, i)
		switch {
		case i < len(b) && b[i] == '>':
			sc.pos = i + 1
			return nil
		case i+1 < len(b) && b[i] == '/' && b[i+1] == '>':
			sc.pos = i + 2
			sc.finish()
			return nil
		}
		attrEnd, attr, ok := scanQName(b, i)
		if !ok {
			return sc.errorf("expected attribute name, > or /> in element")
		}
		i = skipSpace(b, attrEnd)
		q := skipSpace(b, i+1)
		if i >= len(b) || b[i] != '=' || q >= len(b) || b[q] != '"' && b[q] != '\'' {
			return sc.errorf(`expected ="value" after attribute name`)
		}
		n := bytes.IndexByte(b[q+1:], b[q])
		if n < 0 || bytes.IndexByte(b[q+1:q+1+n], '<') >= 0 {
			return sc.errorf("unterminated attribute value or unescaped < inside it")
		}
		val, err := sc.value(b[q+1:q+1+n], inQuotes)
		if err != nil {
			return err
		}
		i = q + n + 2
		if !sc.opts.AttributesAsNodes {
			continue
		}
		sc.key = append(append(sc.key[:0], '@'), attr...)
		if sc.opts.TextAsNodes && len(val) > 0 {
			sc.add(sc.key, 1, true)
			sc.add(val, 0, false)
		} else {
			sc.add(sc.key, 0, true)
		}
	}
}

func (sc *scanner) endTag() error {
	b := sc.b
	if len(sc.open) == 0 {
		return sc.errorf("unbalanced end element")
	}
	e := sc.open[len(sc.open)-1]
	i, _ := scanName(b, sc.pos+2)
	if !bytes.Equal(b[sc.pos+2:i], b[e.nameOff:e.nameEnd]) {
		return sc.errorf("element <%s> closed by </%s>", b[e.nameOff:e.nameEnd], b[sc.pos+2:i])
	}
	if i = skipSpace(b, i); i >= len(b) || b[i] != '>' {
		return sc.errorf("invalid characters between </%s and >", b[e.nameOff:e.nameEnd])
	}
	sc.pos = i + 1
	sc.finish()
	return nil
}

// procInst skips <?target … ?>. An XML declaration ("xml" target,
// wherever it stands, as in encoding/xml) must say version 1.0 and
// UTF-8 if it says either.
func (sc *scanner) procInst() error {
	b := sc.b
	targetEnd, ok := scanName(b, sc.pos+2)
	target := b[sc.pos+2 : targetEnd]
	if !ok {
		return sc.errorf("expected target name after <?")
	}
	i := skipSpace(b, targetEnd)
	n := bytes.Index(b[i:], []byte("?>"))
	if n < 0 {
		return sc.errorf("unexpected EOF in processing instruction")
	}
	if string(target) == "xml" {
		decl := b[i : i+n]
		if v := pseudoAttr(decl, "version="); len(v) > 0 && string(v) != "1.0" {
			return sc.errorf("unsupported version %q; only version 1.0 is supported", v)
		}
		if enc := pseudoAttr(decl, "encoding="); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
			return sc.errorf("unsupported encoding %q; only UTF-8 is supported", enc)
		}
	}
	sc.pos = i + n + 2
	return nil
}

// pseudoAttr finds param (`name=`) followed by a quoted value in an XML
// declaration, with encoding/xml's leniency: the first occurrence that
// is followed by a quote counts, wherever it stands.
func pseudoAttr(decl []byte, param string) []byte {
	for {
		k := bytes.Index(decl, []byte(param))
		if k < 0 || k+len(param) >= len(decl) {
			return nil
		}
		quote := decl[k+len(param)]
		decl = decl[k+len(param)+1:]
		if quote == '"' || quote == '\'' {
			if n := bytes.IndexByte(decl, quote); n >= 0 {
				return decl[:n]
			}
			return nil
		}
	}
}

// bang handles "<!": comments, CDATA sections and directives.
func (sc *scanner) bang() error {
	b := sc.b
	rest := b[sc.pos+2:]
	switch {
	case bytes.HasPrefix(rest, []byte("--")):
		n := bytes.Index(rest[2:], []byte("--"))
		if n < 0 || n+4 >= len(rest) {
			return sc.errorf("unexpected EOF in comment")
		}
		if rest[n+4] != '>' {
			return sc.errorf(`invalid sequence "--" not allowed in comments`)
		}
		sc.pos += n + 7
		return nil
	case bytes.HasPrefix(rest, []byte("[CDATA[")):
		n := bytes.Index(rest[7:], []byte("]]>"))
		if n < 0 {
			return sc.errorf("unexpected EOF in CDATA section")
		}
		err := sc.charData(rest[7:7+n], inCDATA)
		sc.pos += n + 12
		return err
	case len(rest) == 0 || rest[0] == '-' || rest[0] == '[':
		return sc.errorf("invalid sequence after <!")
	}
	// A directive, <!DOCTYPE …> or the like, delimited as encoding/xml
	// delimits it: the byte after "<!" is taken blindly, quotes hide
	// everything, unquoted < and > nest (an internal subset), and
	// <!-- … --> inside is skipped whatever it holds.
	var quote byte
	depth := 0
	for i := sc.pos + 3; i < len(b); i++ {
		switch c := b[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>' && depth == 0:
			sc.pos = i + 1
			return nil
		case c == '>':
			depth--
		case c == '<' && bytes.HasPrefix(b[i+1:], []byte("!--")):
			n := bytes.Index(b[i+4:], []byte("-->"))
			if n < 0 {
				return sc.errorf("unexpected EOF in directive")
			}
			i += n + 6
		case c == '<':
			depth++
		}
	}
	return sc.errorf("unexpected EOF in directive")
}

// Where a run of character data stands decides what value lets through.
const (
	inContent = iota // entities expanded; "]]>" is an error
	inCDATA          // no entities
	inQuotes         // an attribute value: entities expanded
)

// charData checks one run of character data and, when text is promoted
// and the run stands inside an element, adds its trimmed value as a leaf.
func (sc *scanner) charData(raw []byte, where int) error {
	val, err := sc.value(raw, where)
	if err != nil {
		return err
	}
	if sc.opts.TextAsNodes && len(sc.open) > 0 {
		if val = bytes.TrimSpace(val); len(val) > 0 {
			sc.add(val, 0, true)
		}
	}
	return nil
}

// value returns raw with entities expanded and CR and CRLF turned into
// LF, after checking that the result is UTF-8 made of XML characters.
// The result aliases raw or sc.text.
func (sc *scanner) value(raw []byte, where int) ([]byte, error) {
	if where == inContent && bytes.Contains(raw, []byte("]]>")) {
		return nil, sc.errorf("unescaped ]]> not in CDATA section")
	}
	val := raw
	if bytes.IndexByte(raw, '\r') >= 0 || where != inCDATA && bytes.IndexByte(raw, '&') >= 0 {
		val = sc.text[:0]
		for i := 0; i < len(raw); i++ {
			switch c := raw[i]; {
			case c == '&' && where != inCDATA:
				r, n := entity(raw[i+1:])
				if n == 0 {
					return nil, sc.errorf("invalid character entity")
				}
				val = utf8.AppendRune(val, r)
				i += n
			case c == '\r':
				val = append(val, '\n')
			case c == '\n' && i > 0 && raw[i-1] == '\r':
			default:
				val = append(val, c)
			}
		}
		sc.text = val
	}
	for i := 0; i < len(val); {
		if c := val[i]; c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return nil, sc.errorf("illegal character code %U", c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(val[i:])
		if size == 1 || r == 0xFFFE || r == 0xFFFF {
			return nil, sc.errorf("invalid UTF-8 or illegal character code %U", r)
		}
		i += size
	}
	return val, nil
}

// entity decodes the reference whose '&' precedes p: one of the five
// predefined entities or a numeric character reference. It returns the
// character and the bytes of p consumed, 0 if there is no valid
// reference. A reference to a surrogate yields U+FFFD, as string(rune)
// does.
func entity(p []byte) (rune, int) {
	if len(p) > 1 && p[0] == '#' {
		digits, base := p[1:], 10
		if digits[0] == 'x' {
			digits, base = digits[1:], 16
		}
		end := bytes.IndexByte(digits, ';')
		if end < 0 {
			return 0, 0
		}
		n, err := strconv.ParseUint(string(digits[:end]), base, 32)
		if err != nil || n > utf8.MaxRune {
			return 0, 0
		}
		return rune(n), len(p) - len(digits) + end + 1
	}
	for _, e := range predefined {
		if bytes.HasPrefix(p, []byte(e.name)) {
			return e.r, len(e.name)
		}
	}
	return 0, 0
}

var predefined = [...]struct {
	name string
	r    rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanName scans the XML 1.0 Name starting at b[start] and returns its
// end; ok is false if there is none or it holds an invalid rune. In
// ASCII a name is letters, digits and "_:.-", the last two groups and
// digits not in front; nametable.go has the rest.
func scanName(b []byte, start int) (end int, ok bool) {
	i := start
	for i < len(b) {
		c := b[i]
		switch {
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if size == 1 || !inRanges(nameStart[:], r) && (i == start || !inRanges(nameRest[:], r)) {
				return i, false
			}
			i += size - 1
		case 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_' || c == ':':
		case i > start && ('0' <= c && c <= '9' || c == '-' || c == '.'):
		default:
			return i, i > start
		}
		i++
	}
	return i, i > start
}

func inRanges(pairs []uint16, r rune) bool {
	i := sort.Search(len(pairs)/2, func(i int) bool { return rune(pairs[2*i+1]) >= r })
	return i < len(pairs)/2 && rune(pairs[2*i]) <= r
}

// scanQName is scanName for an element or attribute name, which may
// hold one colon. It also returns the local name: what follows the
// colon, unless the colon stands at either end ("a:", ":a"), as in
// encoding/xml.
func scanQName(b []byte, start int) (end int, local []byte, ok bool) {
	end, ok = scanName(b, start)
	local = b[start:end]
	k := bytes.IndexByte(local, ':')
	if k >= 0 && bytes.IndexByte(local[k+1:], ':') >= 0 {
		return end, nil, false
	}
	if k > 0 && k < len(local)-1 {
		local = local[k+1:]
	}
	return end, local, ok
}

// The label cache makes a tag name one shared string across documents
// instead of one allocation per node. It is set-associative, lock-free
// and cannot grow: a label hashes to a set of four slots, and a miss in
// a full set overwrites one of them. 1024 × 4 slots is some twenty
// times a DTD's vocabulary (a few hundred labels), and four ways keep
// hot tags that share a set from evicting each other while a stream of
// distinct promoted text values passes through. Labels over 64 bytes
// (long text) are not worth a slot, so the cache holds at most 256 KB
// of label bytes.
const (
	labelCacheSets   = 1024 // a power of two
	labelCacheWays   = 4
	labelCacheMaxLen = 64
)

var (
	labelCache  [labelCacheSets][labelCacheWays]atomic.Pointer[string]
	labelSeed   = maphash.MakeSeed()
	labelVictim atomic.Uint32 // rotates the way a full set gives up
)

// cachedLabel returns b as a string that never aliases b.
func cachedLabel(b []byte) string {
	if len(b) > labelCacheMaxLen {
		return string(b)
	}
	set := &labelCache[maphash.Bytes(labelSeed, b)%labelCacheSets]
	way := -1
	for i := range set {
		switch p := set[i].Load(); {
		case p == nil:
			way = i
		case *p == string(b):
			return *p
		}
	}
	if way < 0 {
		way = int(labelVictim.Add(1) % labelCacheWays)
	}
	s := string(b)
	set[way].Store(&s)
	return s
}

// WriteXML serializes the tree as XML to w, in one write. Labels are
// written as element names verbatim; callers are responsible for using
// XML-safe labels. With indent set, every element starts a line,
// indented two spaces per level, and the output ends in a newline;
// otherwise it is compact.
func WriteXML(w io.Writer, t *Tree, indent bool) error {
	s, err := XMLString(t, indent)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, s)
	return err
}

// XMLString returns the XML serialization of the tree.
func XMLString(t *Tree, indent bool) (string, error) {
	if t == nil || t.Root == nil {
		return "", fmt.Errorf("xmltree: cannot serialize empty tree")
	}
	var b strings.Builder
	b.Grow(compactLen(t.Root))
	writeXMLNode(&b, t.Root, 0, indent)
	if indent {
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// compactLen is the length of n's compact serialization.
func compactLen(n *Node) int {
	if n.IsLeaf() {
		return len("</>") + len(n.Label)
	}
	size := len("<></>") + 2*len(n.Label)
	for _, c := range n.Children {
		size += compactLen(c)
	}
	return size
}

func writeXMLNode(b *strings.Builder, n *Node, depth int, indent bool) {
	if indent {
		if depth > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(strings.Repeat("  ", depth))
	}
	b.WriteByte('<')
	b.WriteString(n.Label)
	if n.IsLeaf() {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range n.Children {
		writeXMLNode(b, c, depth+1, indent)
	}
	if indent {
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("  ", depth))
	}
	b.WriteString("</")
	b.WriteString(n.Label)
	b.WriteByte('>')
}
