package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ExpoSample is one parsed sample line. Name is the full sample name
// including any histogram suffix (_bucket/_sum/_count); Labels are in
// source order.
type ExpoSample struct {
	Name   string
	Labels []Label
	Value  float64
}

// ExpoHistogram is one histogram series decoded from its _bucket, _sum and
// _count lines: Labels are the series' labels without le, in source order.
type ExpoHistogram struct {
	Labels []Label
	HistogramSnapshot
}

// ExpoFamily groups the samples of one metric family as parsed from a text
// exposition: Name is the base family name (histogram suffixes stripped for
// declared histograms), Type the declared TYPE ("" when undeclared), Help
// the HELP text as written (escapes kept). Histograms holds the decoded
// series of a declared histogram that have bucket lines, in first-seen
// order; Samples still lists every line of the family.
type ExpoFamily struct {
	Name       string
	Type       string
	Help       string
	Samples    []ExpoSample
	Histograms []ExpoHistogram
}

// ParseExposition parses a Prometheus text exposition (version 0.0.4) into
// its families, in source order. It is deliberately not the code that
// renders the exposition, so it doubles as the check that keeps AppendText
// honest, and it is strict enough to read untrusted peer output:
//
//   - line syntax: HELP/TYPE comments, sample lines
//     `name{labels} value [timestamp]`, metric and label name grammar,
//     escaped label values, parseable values (including +Inf/-Inf/NaN);
//   - at most one TYPE per family, appearing before the family's samples;
//   - no duplicate series (same name and label set);
//   - histogram shape: every `_bucket` sample carries an `le` label, bucket
//     and `_count` values are non-negative integers, bounds strictly
//     increase and end with `le="+Inf"`, cumulative counts never decrease,
//     and `_count` equals the +Inf bucket.
//
// Free-form comments and timestamps are accepted and dropped.
func ParseExposition(data []byte) ([]ExpoFamily, error) {
	p := &expoParser{
		index:  map[string]int{},
		typed:  map[string]string{},
		names:  map[string]bool{},
		series: map[string]bool{},
		hists:  map[string]*histSeries{},
	}
	for i, line := range strings.Split(string(data), "\n") {
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", i+1, err)
		}
	}
	for _, hs := range p.histOrder {
		if len(hs.bounds) == 0 {
			continue // _sum/_count without buckets: nothing to decode
		}
		snap, err := hs.decode()
		if err != nil {
			return nil, fmt.Errorf("obs: exposition: %s: %w", hs.where, err)
		}
		f := &p.fams[hs.fam]
		f.Histograms = append(f.Histograms, ExpoHistogram{Labels: hs.labels, HistogramSnapshot: snap})
	}
	return p.fams, nil
}

// histSeries accumulates one histogram series (family + labels sans le) in
// source order until the whole exposition has been read.
type histSeries struct {
	fam      int    // position in expoParser.fams
	where    string // family{labels}, for errors
	labels   []Label
	bounds   []float64 // le values
	cum      []uint64  // cumulative bucket counts
	sum      float64
	count    uint64
	hasCount bool
}

type expoParser struct {
	fams      []ExpoFamily
	index     map[string]int    // family name -> position in fams
	typed     map[string]string // family -> declared type
	names     map[string]bool   // sample names seen
	series    map[string]bool   // name+labels -> seen
	hists     map[string]*histSeries
	histOrder []*histSeries
}

// family returns the named family's position, creating it on first sight.
func (p *expoParser) family(name string) int {
	if i, ok := p.index[name]; ok {
		return i
	}
	p.index[name] = len(p.fams)
	p.fams = append(p.fams, ExpoFamily{Name: name})
	return len(p.fams) - 1
}

func (p *expoParser) line(line string) error {
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return p.comment(line)
	}
	return p.sample(line)
}

func (p *expoParser) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // free-form comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validMetricName(name) {
			return fmt.Errorf("TYPE for invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %s", typ, name)
		}
		if _, dup := p.typed[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		// Before a histogram TYPE its suffixed lines were samples of other
		// families; after it they would fold into this one.
		after := p.names[name]
		if typ == "histogram" {
			after = after || p.names[name+"_bucket"] || p.names[name+"_sum"] || p.names[name+"_count"]
		}
		if after {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		p.typed[name] = typ
		p.fams[p.family(name)].Type = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
		if !validMetricName(fields[2]) {
			return fmt.Errorf("HELP for invalid metric name %q", fields[2])
		}
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		p.fams[p.family(fields[2])].Help = help
	}
	return nil
}

func (p *expoParser) sample(line string) error {
	name, rest, err := scanMetricName(line)
	if err != nil {
		return err
	}
	labels, rest, err := scanLabels(rest)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rest = strings.TrimLeft(rest, " ")
	valueField, tsField, _ := strings.Cut(rest, " ")
	value, err := parseSampleValue(valueField)
	if err != nil {
		return fmt.Errorf("%s: bad value %q", name, valueField)
	}
	if tsField != "" {
		if _, err := strconv.ParseInt(strings.TrimSpace(tsField), 10, 64); err != nil {
			return fmt.Errorf("%s: bad timestamp %q", name, tsField)
		}
	}

	family, suffix := histFamily(name, p.typed)
	p.names[name] = true
	seriesKey := name + "{" + canonicalLabels(labels, "") + "}"
	if p.series[seriesKey] {
		return fmt.Errorf("duplicate series %s", seriesKey)
	}
	p.series[seriesKey] = true
	fi := p.family(family)
	p.fams[fi].Samples = append(p.fams[fi].Samples, ExpoSample{Name: name, Labels: labels, Value: value})
	if suffix == "" {
		return nil
	}

	group := family + "{" + canonicalLabels(labels, "le") + "}"
	hs := p.hists[group]
	if hs == nil {
		hs = &histSeries{fam: fi, where: group, labels: labelsWithout(labels, "le")}
		p.hists[group] = hs
		p.histOrder = append(p.histOrder, hs)
	}
	switch suffix {
	case "_bucket":
		le, ok := labelValue(labels, "le")
		if !ok {
			return fmt.Errorf("%s: histogram bucket without le label", name)
		}
		bound, err := parseSampleValue(le)
		if err != nil {
			return fmt.Errorf("%s: bad le value %q", name, le)
		}
		n, err := countOf(name, value)
		if err != nil {
			return err
		}
		hs.bounds = append(hs.bounds, bound)
		hs.cum = append(hs.cum, n)
	case "_sum":
		hs.sum = value
	case "_count":
		n, err := countOf(name, value)
		if err != nil {
			return err
		}
		hs.count, hs.hasCount = n, true
	}
	return nil
}

// countOf converts a bucket or _count value to a count: it must be a
// non-negative integer that fits a uint64.
func countOf(name string, v float64) (uint64, error) {
	if !(v >= 0 && v < 1<<64) || v != math.Trunc(v) {
		return 0, fmt.Errorf("%s: count %g is not a non-negative integer", name, v)
	}
	return uint64(v), nil
}

// decode checks the series' histogram shape and de-cumulates its buckets
// into a snapshot; the final +Inf bound stays implicit.
func (hs *histSeries) decode() (HistogramSnapshot, error) {
	snap := HistogramSnapshot{
		Bounds: make([]float64, 0, len(hs.bounds)-1),
		Counts: make([]uint64, len(hs.bounds)),
		Sum:    hs.sum,
	}
	last := math.Inf(-1)
	var prev uint64
	for i, b := range hs.bounds {
		if !(b > last) {
			return HistogramSnapshot{}, fmt.Errorf("bucket bounds not increasing (le=%g after %g)", b, last)
		}
		if hs.cum[i] < prev {
			return HistogramSnapshot{}, fmt.Errorf("cumulative bucket counts decrease at le=%g", b)
		}
		snap.Counts[i] = hs.cum[i] - prev
		if i < len(hs.bounds)-1 {
			snap.Bounds = append(snap.Bounds, b)
		}
		last, prev = b, hs.cum[i]
	}
	if !math.IsInf(last, 1) {
		return HistogramSnapshot{}, fmt.Errorf("bucket group does not end with le=\"+Inf\"")
	}
	if hs.hasCount && hs.count != prev {
		return HistogramSnapshot{}, fmt.Errorf("_count %d != +Inf bucket %d", hs.count, prev)
	}
	snap.Count = prev
	return snap, nil
}

// histFamily maps a sample name to its family: for declared histograms the
// _bucket/_sum/_count suffixes belong to the base name.
func histFamily(name string, typed map[string]string) (family, histSuffix string) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && typed[base] == "histogram" {
			return base, suffix
		}
	}
	return name, ""
}

func scanMetricName(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, line[i:], nil
}

// scanLabels parses an optional {k="v",...} block, returning the pairs and
// the remainder of the line. Label values unescape \\, \" and \n only.
func scanLabels(s string) ([]Label, string, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, s, nil
	}
	var out []Label
	s = strings.TrimLeft(s[1:], " ")
	for !strings.HasPrefix(s, "}") {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, s, fmt.Errorf("label pair missing '='")
		}
		lname := strings.TrimSpace(s[:eq])
		if !validLabelName(lname) {
			return nil, s, fmt.Errorf("invalid label name %q", lname)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, s, fmt.Errorf("label %s value not quoted", lname)
		}
		var val []byte
		i := 1
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] != '\\' {
				val = append(val, s[i])
				continue
			}
			if i++; i == len(s) {
				return nil, s, fmt.Errorf("label %s value has truncated escape", lname)
			}
			switch s[i] {
			case '\\', '"':
				val = append(val, s[i])
			case 'n':
				val = append(val, '\n')
			default:
				return nil, s, fmt.Errorf("label %s value has bad escape \\%c", lname, s[i])
			}
		}
		if i == len(s) {
			return nil, s, fmt.Errorf("label %s value unterminated", lname)
		}
		out = append(out, Label{Name: lname, Value: string(val)})
		s = strings.TrimLeft(s[i+1:], " ")
		if strings.HasPrefix(s, ",") {
			s = strings.TrimLeft(s[1:], " ")
		} else if !strings.HasPrefix(s, "}") {
			return nil, s, fmt.Errorf("expected ',' or '}' after label %s", lname)
		}
	}
	return out, s[1:], nil
}

func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// LabelValue returns the value of the named label on the sample.
func (s ExpoSample) LabelValue(name string) (string, bool) {
	return labelValue(s.Labels, name)
}

// CanonicalLabels renders the sample's label set in sorted, quoted form —
// a stable identity key for matching series across expositions.
func (s ExpoSample) CanonicalLabels() string { return canonicalLabels(s.Labels, "") }

// CanonicalLabels is the histogram series' identity key, as for samples.
func (h ExpoHistogram) CanonicalLabels() string { return canonicalLabels(h.Labels, "") }

func labelValue(labels []Label, name string) (string, bool) {
	for _, l := range labels {
		if l.Name == name {
			return l.Value, true
		}
	}
	return "", false
}

// labelsWithout returns labels minus the named one.
func labelsWithout(labels []Label, skip string) []Label {
	out := make([]Label, 0, len(labels))
	for _, l := range labels {
		if l.Name != skip {
			out = append(out, l)
		}
	}
	return out
}

// canonicalLabels renders labels, minus any named skip, sorted and quoted.
func canonicalLabels(labels []Label, skip string) string {
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		if l.Name == skip {
			continue
		}
		parts = append(parts, l.Name+"="+strconv.Quote(l.Value))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
