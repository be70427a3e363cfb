package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), families in lexical order,
// series in registration order. Gauge funcs are evaluated here, under
// no registry lock beyond the snapshotting of the series list, so they
// may take their component's own locks freely.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.sortedNames()...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	// Copy each family's series list so evaluation happens outside the
	// registry lock (gauge funcs may register nothing but may block).
	type famSnap struct {
		name, help string
		typ        Type
		series     []*series
	}
	snaps := make([]famSnap, 0, len(fams))
	for _, f := range fams {
		fs := famSnap{name: f.name, help: f.help, typ: f.typ}
		for _, ls := range f.order {
			fs.series = append(fs.series, f.series[ls])
		}
		snaps = append(snaps, fs)
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range snaps {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				writeSample(bw, f.name, s.labels, "", float64(s.c.Load()))
			case s.g != nil:
				writeSample(bw, f.name, s.labels, "", float64(s.g.Load()))
			case s.fn != nil:
				writeSample(bw, f.name, s.labels, "", s.fn())
			case s.h != nil:
				snap := s.h.Snapshot()
				var cum uint64
				for i, c := range snap.Counts {
					cum += c
					le := "+Inf"
					if i < len(snap.Bounds) {
						le = formatFloat(snap.Bounds[i])
					}
					writeSample(bw, f.name+"_bucket", joinLabels(s.labels, `le="`+le+`"`), "", float64(cum))
				}
				writeSample(bw, f.name+"_sum", s.labels, "", snap.Sum)
				writeSample(bw, f.name+"_count", s.labels, "", float64(snap.Count))
			}
		}
	}
	return bw.Flush()
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func writeSample(w io.Writer, name, labels, suffix string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s%s %s\n", name, suffix, formatFloat(v))
	} else {
		fmt.Fprintf(w, "%s%s{%s} %s\n", name, suffix, labels, formatFloat(v))
	}
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Sample is one parsed exposition line: a metric name (histogram
// series appear under their _bucket/_sum/_count sample names), its
// label set, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText parses Prometheus text exposition — the subset
// WritePrometheus emits plus ordinary escaped label values — and
// returns every sample. It is strict: any malformed line is an error,
// which is what lets CI treat "ParseText succeeded" as a format check.
// Comment (#) and blank lines are skipped.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	// Name runs to '{' or whitespace.
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; take the first field.
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		rest = rest[:j]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a `{k="v",...}` body starting at in[0] == '{' and
// returns the index just past the closing brace.
func parseLabels(in string, out map[string]string) (int, error) {
	i := 1
	for {
		for i < len(in) && (in[i] == ' ' || in[i] == ',') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("unterminated label set in %q", in)
		}
		key := strings.TrimSpace(in[i : i+eq])
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", in)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(in) {
				return 0, fmt.Errorf("unterminated label value in %q", in)
			}
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				switch in[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(in[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		out[key] = b.String()
	}
}

func validMetricName(name string) bool {
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return name != ""
}

// SumByName folds samples into per-name totals (summing across label
// sets) — the convenient shape for threshold checks in cmd/metriccheck.
func SumByName(samples []Sample) map[string]float64 {
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		m[s.Name] += s.Value
	}
	return m
}

// Names returns the sorted distinct sample names.
func Names(samples []Sample) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range samples {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}
