package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"strings"
	"testing"
)

// allParseOptions is the four ParseOptions combinations.
var allParseOptions = []ParseOptions{
	{},
	{TextAsNodes: true},
	{AttributesAsNodes: true},
	{TextAsNodes: true, AttributesAsNodes: true},
}

// diffReference fails t unless Parse and the encoding/xml reference
// agree on s under every ParseOptions combination: both accept or both
// reject, and accepted trees are Equal. The one disagreement allowed is
// depth: Parse refuses ErrTooDeep what the reference accepts, provided
// the reference's tree really has more than MaxDepth-2 levels.
func diffReference(t *testing.T, s string) {
	t.Helper()
	for _, opts := range allParseOptions {
		want, wantErr := referenceParse(strings.NewReader(s), opts)
		got, err := ParseString(s, opts)
		if errors.Is(err, ErrTooDeep) {
			if wantErr == nil && want.Depth() <= MaxDepth-2 {
				t.Fatalf("Parse(%d bytes, %+v) refused as too deep a tree of depth %d", len(s), opts, want.Depth())
			}
			if _, rerr := Parse(strings.NewReader(s), opts); !errors.Is(rerr, ErrTooDeep) {
				t.Fatalf("Parse(%d bytes, %+v) over a reader = %v; ParseString = %v", len(s), opts, rerr, err)
			}
			continue
		}
		if err == nil && got.Depth() > MaxDepth {
			t.Fatalf("Parse(%d bytes, %+v) accepted a tree of depth %d", len(s), opts, got.Depth())
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Parse(%q, %+v): err = %v, reference err = %v", s, opts, err, wantErr)
		}
		if err == nil && !got.Root.Equal(want.Root) {
			t.Fatalf("Parse(%q, %+v) = %s, reference %s", s, opts, got, want)
		}
		if viaReader, rerr := Parse(strings.NewReader(s), opts); (rerr == nil) != (err == nil) ||
			err == nil && !viaReader.Root.Equal(got.Root) {
			t.Fatalf("Parse(%q, %+v) over a reader = %v, %v; ParseString = %v, %v", s, opts, viaReader, rerr, got, err)
		}
	}
}

// referenceSeeds is what a hand-written scanner gets wrong first.
var referenceSeeds = []string{
	"<a>&lt;&amp;&#65;&#x41;</a>", "<a>&foo;</a>", "<a>&lt</a>", "<a>&#;&#x;</a>", "<a>&#X41;</a>",
	"<a>&#0;</a>", "<a>&#xD800;</a>", "<a>&#xFFFE;</a>", "<a>&#x110000;</a>", "<a>&#99999999999999999999;</a>",
	"<a>]]></a>", "<a>]]&gt;</a>", "<a>]&#93;></a>", "<a b=']]>'/>", "<a/>]]>",
	"<a><!-- -- --></a>", "<a><!----></a>", "<a><!-----></a>", "<a><!---></a>", "<!-x--><a/>",
	"<a><![CDATA[<x/>]]></a>", "<a>x<![CDATA[y]]>z</a>", "<a><![CDATA[]]]]><![CDATA[>]]></a>", "<a><![CDATA[&amp;\r\n]]></a>", "<a><![CDAT[]]></a>", "<![CDATA[x]]><a/>",
	`<!DOCTYPE a [<!ENTITY e "v"><!-- > -->]><a/>`, `<!DOCTYPE a [<!ENTITY e ">'">]><a/>`, "<!><a/>", "<!>><a/>", "<!\"><a/>", "<!DOCTYPE a [<x]><a/>", "<!DOCTYPE a <!- ><a/>", "<!DOCTYPE a <!-- -- ><a/>", "<a><!DOCTYPE b></a>",
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, `<?xml version="1.0" encoding="UTF-8"?><a/>`, `<?xml version='1.0' encoding='utf-8'?><a/>`,
	`<?xml version="1.1"?><a/>`, `<?xml version=1.0 version="1.0"?><a/>`, `<?xml encoding="?><a/>`, `<a><?xml version="2"?></a>`, "<?xml?><a/>", "<?a:b:c d?><a/>", "<? a?><a/>", "<?a ?", "<?1?><a/>",
	"<x:a></y:a>", "<x:a></x:a>", "<x:a></a>", "<a></a:>", "<A:0/>", "<a:/>", "<:a/>", "<:/>", "<a:b:c/>", "<:a:/>", "<a x:y:z='1'/>", "<a :b='1' c:='2' xmlns:p='u' xmlns='v'/>",
	"</a >", "<a></a >", "<a></a b>", "<a></ab>", "<a b='1' b=\"2\"/>", "<a b=1/>", "<a b/>", "<a b='<'/>", "<a b='1'c='2'/>", "<a b = '&lt;&#10;\r\n' />", "<a b=''/>", "<a b=\"'\" c='\"'/>", "<a b='1/>", "<a / >", "<a/ >",
	"<a>\r\n x\r\ry \r\n</a>", "<a>\r&#13;\n</a>", "<a>\u00a0x\u2003</a>", "<a>\x00</a>", "<a>\x1f</a>", "<a>\xff</a>", "<a>\ufffe</a>", "<a>\ufffd</a>", "<a>\xed\xa0\x80</a>",
	"<\xff\xfe/>", "<a\xc3/>", "<\u00e9l\u00e9ment/>", "<a\u00b7\u0300/>", "<\u00b7a/>", "<\u00d7/>", "<a\U00010000/>", "<-a/>", "<a-.1/>", "<1a/>",
	"\ufeff<a/>", "<a/>trailing text", "<a/>&bogus;", "leading<a/>", "<a/><b/>", "<a>", "<", "<a", "<a ", "<a b", "<a b=", "<a b='", "</", "<!", "<!-", "<![", "<?", "", " ", "not xml at all",
	strings.Repeat("<a>", 100) + strings.Repeat("</a>", 100), strings.Repeat("<a>", 100),
}

// TestDeepNestingVsReference is the deep cases: at the depth bound,
// where Parse and the reference must still agree, and past it, where
// Parse alone refuses. They are tests, not fuzz seeds: the fuzzer spends
// its whole budget minimizing the 70 KB mutants such seeds breed.
func TestDeepNestingVsReference(t *testing.T) {
	for _, depth := range []int{MaxDepth - 2, MaxDepth - 1, 10000} {
		diffReference(t, strings.Repeat("<a>", depth)+strings.Repeat("</a>", depth))
		diffReference(t, strings.Repeat("<a>", depth)+strings.Repeat("</a>", depth-1))
		diffReference(t, strings.Repeat("<a b='1'>t", depth)+strings.Repeat("</a>", depth))
		_, err := ParseString(strings.Repeat("<a b='1'>t", depth)+strings.Repeat("</a>", depth), ParseOptions{TextAsNodes: true, AttributesAsNodes: true})
		if tooDeep := depth > MaxDepth-2; errors.Is(err, ErrTooDeep) != tooDeep || (err != nil) != tooDeep {
			t.Errorf("%d elements deep: err = %v", depth, err)
		}
	}
}

// FuzzParseVsReference holds the hand-written scanner to the
// encoding/xml parser it replaced.
func FuzzParseVsReference(f *testing.F) {
	for _, seed := range referenceSeeds {
		f.Add(seed)
	}
	f.Fuzz(diffReference)
}

// TestNameTablesMatchEncodingXML checks nameStart and nameRest against
// encoding/xml's verdict on every code point, as the first and as a
// later character of an element name.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	accepts := func(doc string) bool {
		tok, err := xml.NewDecoder(strings.NewReader(doc)).Token()
		_, isElement := tok.(xml.StartElement)
		return err == nil && isElement
	}
	for r := rune(0); r <= 0x10FFFF; r++ {
		if r == 0xD800 {
			r = 0xE000 // surrogates do not survive string(r)
		}
		first, later := "<"+string(r)+"/>", "<a"+string(r)+"/>"
		if r == '/' || r == '>' || r == ' ' || r == '\t' || r == '\n' || r == '\r' {
			continue // ends the name "a"
		}
		for _, doc := range []string{first, later} {
			if _, err := ParseString(doc, ParseOptions{}); (err == nil) != accepts(doc) {
				t.Fatalf("ParseString(%q): err = %v, encoding/xml accepts = %v", doc, err, accepts(doc))
			}
		}
	}
}

// FuzzParseXMLString drives the XML-to-tree parser with arbitrary
// documents — the broker daemon's publish endpoint feeds it untrusted
// network bodies, so it must never panic, and any document it accepts
// must serialize and re-parse to an identical tree.
func FuzzParseXMLString(f *testing.F) {
	for _, seed := range []string{
		"",
		"<a/>",
		"<a></a>",
		"<a><b/></a>",
		"<a><b>text</b><c attr=\"v\"/></a>",
		"<media><CD><title/></CD></media>",
		"<a>&lt;&amp;</a>",
		"<a><!-- comment --><b/></a>",
		"<?xml version=\"1.0\"?><a/>",
		"<a xmlns:x=\"u\"><x:b/></a>",
		"<unclosed>",
		"</late>",
		"<a><b></a></b>",
		"not xml at all",
		"<a>\x00</a>",
		"<\xff\xfe/>",
		strings.Repeat("<a>", 100) + strings.Repeat("</a>", 100),
		"<a b=\"c\" b=\"d\"/>",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// Text/attribute promotion must never panic either (promoted
		// "@name" labels are not serializable XML, so no round trip).
		Parse(strings.NewReader(s), ParseOptions{TextAsNodes: true, AttributesAsNodes: true})

		tr, err := Parse(strings.NewReader(s), ParseOptions{})
		if err != nil {
			return
		}
		if tr == nil || tr.Root == nil {
			t.Fatalf("Parse(%q) accepted a nil tree", s)
		}
		// Serialize/re-parse round trip. Go's decoder is lenient about
		// names in prefixed form ("<A:0/>" has local name "0"), and the
		// tree flattens namespaces to local names, so the serialized
		// form is not always re-parseable XML — but whenever it is, it
		// must describe the identical tree.
		out, err := XMLString(tr, false)
		if err != nil {
			t.Fatalf("accepted %q but cannot serialize: %v", s, err)
		}
		tr2, err := Parse(strings.NewReader(out), ParseOptions{})
		if err != nil {
			return
		}
		if tr.String() != tr2.String() {
			t.Fatalf("round trip changed %q:\n  %s\n  %s", s, tr, tr2)
		}
	})
}

// FuzzParsePacked: ParsePacked(x) is Pack(Parse(x)) byte for byte and
// refuses what Parse refuses, under every ParseOptions combination; and
// where the encoding/xml reference accepts x within the depth bound, it
// is Pack of the reference's tree too.
func FuzzParsePacked(f *testing.F) {
	for _, seed := range referenceSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, opts := range allParseOptions {
			got, err := ParsePacked(strings.NewReader(s), opts)
			tr, perr := Parse(strings.NewReader(s), opts)
			if (err == nil) != (perr == nil) || err == nil && !bytes.Equal(got, Pack(tr)) {
				t.Fatalf("ParsePacked(%q, %+v) = %v, %v; Parse = %v, %v", s, opts, got, err, tr, perr)
			}
			if ref, rerr := referenceParse(strings.NewReader(s), opts); rerr == nil && ref.Depth() <= MaxDepth-2 && !bytes.Equal(got, Pack(ref)) {
				t.Fatalf("ParsePacked(%q, %+v) = %v, %v; the reference's tree packs to %v", s, opts, got, err, Pack(ref))
			}
		}
	})
}
