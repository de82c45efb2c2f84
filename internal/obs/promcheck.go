package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ValidatePrometheus strictly parses a Prometheus text-format 0.0.4
// exposition and reports the first violation. It is the check behind
// cmd/promcheck, which TestEndToEndInvariants runs on a live
// spotlightd scrape, and the exposition unit tests: rather than trusting that WritePrometheus and a real scraper
// agree, the format contract is written down once and enforced on real
// /metrics bodies.
//
// Enforced rules:
//
//   - the body ends with a newline; every line is a HELP/TYPE comment, a
//     plain comment, blank, or a sample
//   - metric and label names match the exposition charsets; label values
//     use only the \\, \", and \n escapes
//   - every sample belongs to a family declared by a preceding # TYPE
//     line (one per family, known type keyword)
//   - no duplicate series (same name and label set)
//   - sample values parse as floats and are not NaN
//   - histogram families expose only _bucket/_sum/_count samples; per
//     label set, bucket `le` bounds strictly increase, cumulative counts
//     never decrease, an `le="+Inf"` bucket exists and equals `_count`,
//     and `_sum` is present
func ValidatePrometheus(data []byte) error {
	body := string(data)
	if body == "" {
		return fmt.Errorf("promcheck: empty exposition")
	}
	if !strings.HasSuffix(body, "\n") {
		return fmt.Errorf("promcheck: body does not end with a newline")
	}
	v := &promValidator{
		types:  map[string]string{},
		series: map[string]bool{},
		hists:  map[string]map[string]*histAccum{},
	}
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if err := v.line(line); err != nil {
			return fmt.Errorf("promcheck: line %d: %w", i+1, err)
		}
	}
	return v.finish()
}

var (
	promNameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// histAccum collects one histogram series group (one label set without
// le) for the end-of-body consistency checks.
type histAccum struct {
	lastLE  float64
	lastCum float64
	buckets int
	infCum  float64
	hasInf  bool
	sum     *float64
	count   *float64
}

type promValidator struct {
	types  map[string]string                // family -> type keyword
	series map[string]bool                  // name + canonical labels -> seen
	hists  map[string]map[string]*histAccum // family -> label group -> accum
}

func (v *promValidator) line(line string) error {
	switch {
	case line == "":
		return nil
	case strings.HasPrefix(line, "#"):
		return v.comment(line)
	}
	return v.sample(line)
}

func (v *promValidator) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 || fields[0] != "#" {
		return nil // free-form comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], fields[3]
		if !promNameRE.MatchString(name) {
			return fmt.Errorf("invalid metric name %q in TYPE line", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %s", typ, name)
		}
		if _, dup := v.types[name]; dup {
			return fmt.Errorf("duplicate TYPE line for %s", name)
		}
		v.types[name] = typ
	case "HELP":
		if len(fields) < 3 || !promNameRE.MatchString(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	}
	return nil
}

// splitSample breaks a sample line into name, raw label block (without
// braces, "" when absent), and the remainder (value and optional
// timestamp).
func splitSample(line string) (name, labels, rest string, err error) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", "", fmt.Errorf("unbalanced braces in %q", line)
		}
		labels = line[i+1 : j]
		rest = strings.TrimSpace(line[j+1:])
		return name, labels, rest, nil
	}
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return "", "", "", fmt.Errorf("sample %q has no value", line)
	}
	return line[:i], "", strings.TrimSpace(line[i+1:]), nil
}

// parseLabels scans an inside-the-braces block, checking name charset
// and escape validity, and returns the labels sorted canonically.
func parseLabels(block string) (pairs []string, byName map[string]string, err error) {
	byName = map[string]string{}
	s := block
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, nil, fmt.Errorf("label without '=' in %q", block)
		}
		name := s[:eq]
		if !promLabelRE.MatchString(name) {
			return nil, nil, fmt.Errorf("invalid label name %q", name)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, nil, fmt.Errorf("label %s value is not quoted", name)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
	scan:
		for len(s) > 0 {
			switch c := s[0]; c {
			case '\\':
				if len(s) < 2 {
					return nil, nil, fmt.Errorf("dangling escape in label %s", name)
				}
				switch s[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, nil, fmt.Errorf("invalid escape \\%c in label %s", s[1], name)
				}
				s = s[2:]
			case '"':
				closed = true
				s = s[1:]
				break scan
			default:
				val.WriteByte(c)
				s = s[1:]
			}
		}
		if !closed {
			return nil, nil, fmt.Errorf("unterminated value for label %s", name)
		}
		if _, dup := byName[name]; dup {
			return nil, nil, fmt.Errorf("duplicate label %s", name)
		}
		byName[name] = val.String()
		pairs = append(pairs, name+`="`+escapeLabelValue(val.String())+`"`)
		if s == "" {
			break
		}
		if !strings.HasPrefix(s, ",") {
			return nil, nil, fmt.Errorf("expected ',' between labels in %q", block)
		}
		s = s[1:]
		if s == "" {
			return nil, nil, fmt.Errorf("trailing ',' in label block %q", block)
		}
	}
	sort.Strings(pairs)
	return pairs, byName, nil
}

// family resolves a sample name to its declared family, peeling the
// histogram suffixes.
func (v *promValidator) family(name string) (fam, typ, suffix string, err error) {
	if t, ok := v.types[name]; ok {
		if t == "histogram" {
			return "", "", "", fmt.Errorf("histogram family %s exposed as a bare sample", name)
		}
		return name, t, "", nil
	}
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, sfx)
		if base == name {
			continue
		}
		if t, ok := v.types[base]; ok {
			if t != "histogram" && t != "summary" {
				return "", "", "", fmt.Errorf("sample %s uses suffix %s but %s is a %s", name, sfx, base, t)
			}
			return base, t, sfx, nil
		}
	}
	return "", "", "", fmt.Errorf("sample %s has no preceding # TYPE line", name)
}

func (v *promValidator) sample(line string) error {
	name, block, rest, err := splitSample(line)
	if err != nil {
		return err
	}
	if !promNameRE.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	if rest == "" {
		return fmt.Errorf("sample %s has no value", name)
	}
	parts := strings.Fields(rest)
	if len(parts) > 2 {
		return fmt.Errorf("sample %s has trailing garbage %q", name, rest)
	}
	val, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return fmt.Errorf("sample %s has unparsable value %q", name, parts[0])
	}
	if math.IsNaN(val) {
		return fmt.Errorf("sample %s is NaN", name)
	}
	if len(parts) == 2 {
		if _, err := strconv.ParseInt(parts[1], 10, 64); err != nil {
			return fmt.Errorf("sample %s has invalid timestamp %q", name, parts[1])
		}
	}
	pairs, byName, err := parseLabels(block)
	if err != nil {
		return err
	}
	key := name + "{" + strings.Join(pairs, ",") + "}"
	if v.series[key] {
		return fmt.Errorf("duplicate series %s", key)
	}
	v.series[key] = true
	fam, typ, suffix, err := v.family(name)
	if err != nil {
		return err
	}
	if typ != "histogram" {
		return nil
	}
	// Group histogram samples by their label set without le.
	group := make([]string, 0, len(pairs))
	for _, p := range pairs {
		if !strings.HasPrefix(p, `le="`) {
			group = append(group, p)
		}
	}
	groupKey := strings.Join(group, ",")
	hg := v.hists[fam]
	if hg == nil {
		hg = map[string]*histAccum{}
		v.hists[fam] = hg
	}
	acc := hg[groupKey]
	if acc == nil {
		acc = &histAccum{lastLE: math.Inf(-1)}
		hg[groupKey] = acc
	}
	switch suffix {
	case "_bucket":
		leStr, ok := byName["le"]
		if !ok {
			return fmt.Errorf("histogram bucket %s missing le label", name)
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			return fmt.Errorf("histogram bucket %s has unparsable le %q", name, leStr)
		}
		if math.IsInf(le, 1) {
			if acc.hasInf {
				return fmt.Errorf("histogram %s has two +Inf buckets", fam)
			}
			acc.hasInf, acc.infCum = true, val
		} else {
			if acc.hasInf {
				return fmt.Errorf("histogram %s has a finite bucket after +Inf", fam)
			}
			if le <= acc.lastLE {
				return fmt.Errorf("histogram %s bucket bounds not increasing (le=%v after %v)", fam, le, acc.lastLE)
			}
			acc.lastLE = le
		}
		if val < acc.lastCum {
			return fmt.Errorf("histogram %s cumulative bucket counts decrease at le=%q", fam, leStr)
		}
		acc.lastCum = val
		acc.buckets++
	case "_sum":
		if acc.sum != nil {
			return fmt.Errorf("histogram %s has two _sum samples for one label set", fam)
		}
		acc.sum = &val
	case "_count":
		if acc.count != nil {
			return fmt.Errorf("histogram %s has two _count samples for one label set", fam)
		}
		acc.count = &val
	}
	return nil
}

func (v *promValidator) finish() error {
	for _, fam := range sortedKeys(v.hists) {
		for _, group := range sortedKeys(v.hists[fam]) {
			acc := v.hists[fam][group]
			where := fam
			if group != "" {
				where += "{" + group + "}"
			}
			switch {
			case !acc.hasInf:
				return fmt.Errorf("promcheck: histogram %s has no +Inf bucket", where)
			case acc.sum == nil:
				return fmt.Errorf("promcheck: histogram %s has no _sum", where)
			case acc.count == nil:
				return fmt.Errorf("promcheck: histogram %s has no _count", where)
			case *acc.count != acc.infCum: //lint:allow floateq(both are exact observation counts parsed from the exposition; the format requires literal equality)
				return fmt.Errorf("promcheck: histogram %s _count %v != +Inf bucket %v", where, *acc.count, acc.infCum)
			}
		}
	}
	for _, name := range sortedKeys(v.types) {
		if v.types[name] != "histogram" {
			continue
		}
		if v.hists[name] == nil {
			return fmt.Errorf("promcheck: histogram family %s declared but has no samples", name)
		}
	}
	return nil
}
