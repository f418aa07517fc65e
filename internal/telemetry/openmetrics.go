// OpenMetrics text exposition (the format Prometheus scrapes) and a
// parser for it. The writer renders a Registry snapshot; the parser
// exists so tests can round-trip the exposition back into snapshots and
// so scrape consumers in-process (the serve smoke test, courseware)
// need no external dependency.
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

// WriteOpenMetrics renders the registry in OpenMetrics text format:
// HELP/TYPE metadata per family, one sample line per series (counters
// take the _total suffix, histograms expand to cumulative _bucket lines
// with le labels plus _sum and _count), closed by the mandatory # EOF.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return writeFamilies(w, r.Snapshot())
}

// writeFamilies renders family snapshots as WriteOpenMetrics does.
func writeFamilies(w io.Writer, fams []FamilySnapshot) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Series {
			switch f.Kind {
			case KindCounter:
				writeSample(bw, f.Name+"_total", f.LabelNames, s.LabelValues, "", "", s.Value)
			case KindGauge:
				writeSample(bw, f.Name, f.LabelNames, s.LabelValues, "", "", s.Value)
			case KindHistogram:
				for _, b := range s.Buckets {
					writeSample(bw, f.Name+"_bucket", f.LabelNames, s.LabelValues,
						"le", formatLe(b.UpperBound), float64(b.CumulativeCount))
				}
				writeSample(bw, f.Name+"_sum", f.LabelNames, s.LabelValues, "", "", s.Sum)
				writeSample(bw, f.Name+"_count", f.LabelNames, s.LabelValues, "", "", float64(s.Count))
			}
		}
	}
	fmt.Fprintln(bw, "# EOF")
	return bw.Flush()
}

// writeSample renders one sample line; extraName/extraValue append a
// synthetic label (le) after the series labels.
func writeSample(w io.Writer, name string, labelNames, labelValues []string, extraName, extraValue string, v float64) {
	io.WriteString(w, name)
	if len(labelNames) > 0 || extraName != "" {
		io.WriteString(w, "{")
		for i, ln := range labelNames {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, `%s="%s"`, ln, escapeLabel(labelValues[i]))
		}
		if extraName != "" {
			if len(labelNames) > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, `%s="%s"`, extraName, extraValue)
		}
		io.WriteString(w, "}")
	}
	io.WriteString(w, " ")
	io.WriteString(w, formatValue(v))
	io.WriteString(w, "\n")
}

// escapeLabel escapes a label value per the exposition format: the
// three characters the format defines (backslash, double quote,
// newline), nothing else — the parser's label scan is the exact
// inverse.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

// escapeHelp escapes HELP text (backslash and newline).
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	var sb strings.Builder
	sb.Grow(len(h) + 2)
	for i := 0; i < len(h); i++ {
		switch h[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(h[i])
		}
	}
	return sb.String()
}

// formatLe renders a histogram bound: +Inf spelled the conventional
// way, finite bounds in shortest round-trip form.
func formatLe(ub float64) string {
	if math.IsInf(ub, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(ub, 'g', -1, 64)
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseOpenMetrics parses text exposition back into family snapshots:
// the inverse of WriteOpenMetrics over the subset of OpenMetrics the
// writer emits (counter/gauge/histogram, no exemplars or timestamps).
// Families come back in exposition order with cumulative buckets; use
// it to verify a scrape end-to-end.
func ParseOpenMetrics(r io.Reader) ([]FamilySnapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var (
		byName = map[string]*FamilySnapshot{}
		order  []string
		sawEOF bool
		lineNo int
	)
	fam := func(name string) *FamilySnapshot {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &FamilySnapshot{Name: name}
		byName[name] = f
		order = append(order, name)
		return f
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if sawEOF {
			return nil, fmt.Errorf("telemetry: line %d: content after # EOF", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			switch {
			case len(fields) >= 2 && fields[1] == "EOF":
				sawEOF = true
			case len(fields) >= 4 && fields[1] == "HELP":
				fam(fields[2]).Help = unescapeHelp(fields[3])
			case len(fields) >= 4 && fields[1] == "TYPE":
				f := fam(fields[2])
				if len(f.Series) > 0 {
					return nil, fmt.Errorf("telemetry: line %d: TYPE of %q after its samples", lineNo, f.Name)
				}
				switch fields[3] {
				case "counter":
					f.Kind = KindCounter
				case "gauge":
					f.Kind = KindGauge
				case "histogram":
					f.Kind = KindHistogram
				default:
					return nil, fmt.Errorf("telemetry: line %d: unknown type %q", lineNo, fields[3])
				}
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
		base, suffix := splitSuffix(name, byName)
		f, ok := byName[base]
		if !ok {
			return nil, fmt.Errorf("telemetry: line %d: sample %q before its TYPE line", lineNo, name)
		}
		if suffix == "" && f.Kind == KindHistogram {
			return nil, fmt.Errorf("telemetry: line %d: histogram sample %q lacks _bucket, _sum or _count", lineNo, name)
		}
		var le string
		kept := labels[:0]
		for _, l := range labels {
			if f.Kind == KindHistogram && l.name == "le" {
				le = l.value
				continue
			}
			kept = append(kept, l)
		}
		labels = kept
		// The first series fixes the family's label names; every other
		// series must carry the same, or the writer could not say it back.
		names := make([]string, len(labels))
		for i, l := range labels {
			names[i] = l.name
		}
		if len(f.Series) == 0 {
			f.LabelNames = names
		} else if !equalStrings(f.LabelNames, names) {
			return nil, fmt.Errorf("telemetry: line %d: labels %v of %q differ from the family's %v", lineNo, names, name, f.LabelNames)
		}
		s := seriesFor(f, labels)
		switch suffix {
		case "":
			s.Value = value
		case "_total":
			s.Value = value
		case "_sum":
			s.Sum = value
		case "_count":
			if s.Count, err = parseCount(value); err != nil {
				return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
			}
		case "_bucket":
			ub := math.Inf(1)
			if le != "+Inf" {
				ub, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return nil, fmt.Errorf("telemetry: line %d: bad le %q", lineNo, le)
				}
			}
			n, err := parseCount(value)
			if err != nil {
				return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
			}
			s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, CumulativeCount: n})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEOF {
		return nil, fmt.Errorf("telemetry: exposition not terminated by # EOF")
	}
	out := make([]FamilySnapshot, 0, len(order))
	for _, n := range order {
		f := byName[n]
		series := f.Series
		for i := range series {
			buckets := series[i].Buckets
			sort.Slice(buckets, func(a, b int) bool {
				return buckets[a].UpperBound < buckets[b].UpperBound
			})
		}
		out = append(out, *f)
	}
	return out, nil
}

// parseCount converts a sample value to an observation count: a whole
// number in [0, 2^64), the range a count round-trips through float64 in.
func parseCount(v float64) (uint64, error) {
	if !(v >= 0 && v < 1<<64) || v != math.Trunc(v) {
		return 0, fmt.Errorf("count %v is not a whole number in [0, 2^64)", v)
	}
	return uint64(v), nil
}

// sampleSuffixes are the OpenMetrics sample-name suffixes, hoisted so
// splitSuffix (called per sample line) does not rebuild the table.
var sampleSuffixes = [...]string{"_bucket", "_sum", "_count", "_total"}

// splitSuffix maps a sample name back to its family: histogram series
// sample names carry _bucket/_sum/_count, counters _total. The family
// is whichever declared (TYPE'd) name the sample name extends with a
// suffix its kind has; otherwise the name is taken whole.
func splitSuffix(name string, byName map[string]*FamilySnapshot) (base, suffix string) {
	for _, suf := range sampleSuffixes {
		if b, ok := strings.CutSuffix(name, suf); ok {
			if f, declared := byName[b]; declared && suffixFits(f.Kind, suf) {
				return b, suf
			}
		}
	}
	return name, ""
}

// suffixFits reports whether the writer emits suffix for a family of
// kind k.
func suffixFits(k Kind, suffix string) bool {
	switch k {
	case KindCounter:
		return suffix == "_total"
	case KindHistogram:
		return suffix != "_total"
	}
	return false
}

type labelPair struct{ name, value string }

// parseSample parses `name{l="v",...} value`.
func parseSample(line string) (name string, labels []labelPair, value float64, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	} else {
		name, rest = rest[:i], rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, "=")
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
			}
			ln := rest[:eq]
			rest = rest[eq+2:]
			var sb strings.Builder
			closed := false
			for i := 0; i < len(rest); i++ {
				c := rest[i]
				if c == '\\' && i+1 < len(rest) {
					i++
					switch rest[i] {
					case 'n':
						sb.WriteByte('\n')
					default:
						sb.WriteByte(rest[i])
					}
					continue
				}
				if c == '"' {
					rest = rest[i+1:]
					closed = true
					break
				}
				sb.WriteByte(c)
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			labels = append(labels, labelPair{name: ln, value: sb.String()})
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = strings.TrimPrefix(rest, "}")
	}
	rest = strings.TrimSpace(rest)
	// Ignore a trailing timestamp if one ever appears.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "+Inf":
		value = math.Inf(1)
	case "-Inf":
		value = math.Inf(-1)
	default:
		value, err = strconv.ParseFloat(rest, 64)
		if err != nil {
			return "", nil, 0, fmt.Errorf("bad value in %q: %v", line, err)
		}
	}
	return name, labels, value, nil
}

// seriesFor finds or creates the series with the label values.
func seriesFor(f *FamilySnapshot, labels []labelPair) *SeriesSnapshot {
	values := make([]string, len(labels))
	for i, l := range labels {
		values[i] = l.value
	}
	for i := range f.Series {
		if equalStrings(f.Series[i].LabelValues, values) {
			return &f.Series[i]
		}
	}
	f.Series = append(f.Series, SeriesSnapshot{LabelValues: values})
	return &f.Series[len(f.Series)-1]
}

// unescapeHelp is the single-pass inverse of escapeHelp (sequential
// ReplaceAll would mis-decode a literal backslash followed by n).
func unescapeHelp(h string) string {
	if !strings.Contains(h, `\`) {
		return h
	}
	var sb strings.Builder
	sb.Grow(len(h))
	for i := 0; i < len(h); i++ {
		if h[i] == '\\' && i+1 < len(h) {
			i++
			switch h[i] {
			case 'n':
				sb.WriteByte('\n')
			default:
				sb.WriteByte(h[i])
			}
			continue
		}
		sb.WriteByte(h[i])
	}
	return sb.String()
}
