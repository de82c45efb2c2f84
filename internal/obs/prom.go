package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format version 0.0.4, which is what /metrics serves to scrapers.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Labeled builds a registry metric name carrying Prometheus-style
// labels: Labeled("job.trials.done", "job", "job-1") returns
// `job.trials.done{job="job-1"}`. Pairs are sorted by key and values are
// escaped, so equal label sets always produce the same name (and with
// it the same registry entry). WritePrometheus splits the block back
// out into exposition labels. Panics on an odd number of kv arguments — label
// sets are static at call sites.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("obs: Labeled requires key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the text-format label escaping: backslash,
// double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promName maps a registry metric name onto the exposition name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*: dots (our namespace separator) and anything
// else illegal become underscores, and a leading digit gains one.
func promName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else if r >= '0' && r <= '9' { // leading digit
			b.WriteByte('_')
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// splitLabels separates a registry key made by Labeled back into base
// name and the inside-the-braces label block ("" when unlabeled).
func splitLabels(key string) (base, labels string) {
	i := strings.IndexByte(key, '{')
	if i < 0 || !strings.HasSuffix(key, "}") {
		return key, ""
	}
	return key[:i], key[i+1 : len(key)-1]
}

// promSeries is one exposition sample line, pre-rendered except for the
// family name.
type promSeries struct {
	labels string // inside-braces block, "" when none
	value  string // rendered sample value
	isLE   bool   // a histogram _bucket sample
	suffix string // _sum or _count for histogram samples
}

// promFamily is one metric family: a TYPE plus its samples.
type promFamily struct {
	name   string
	typ    string
	series []promSeries
}

// sortedKeys returns m's keys in ascending order, which is what makes
// the exposition deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //lint:allow maporder(sorted before return)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// joinLabels merges an existing label block with one extra label.
func joinLabels(block, extra string) string {
	if block == "" {
		return extra
	}
	return block + "," + extra
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format 0.0.4. Counters and gauges map directly; duration
// histograms become cumulative `_bucket{le="<seconds>"}` series (the
// registry's log₂-microsecond buckets, sparse buckets elided, `+Inf`
// always present) with `_sum` in seconds and `_count`. Output is
// sorted — families by name, series by label block — so scrapes of an
// unchanged registry are byte-identical.
func WritePrometheus(w io.Writer, s RegistrySnapshot) error {
	fams := map[string]*promFamily{}
	family := func(name, typ string) *promFamily {
		f := fams[name]
		if f == nil {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
		}
		return f
	}
	for _, key := range sortedKeys(s.Counters) {
		base, labels := splitLabels(key)
		f := family(promName(base), "counter")
		f.series = append(f.series, promSeries{labels: labels, value: strconv.FormatInt(s.Counters[key], 10)})
	}
	for _, key := range sortedKeys(s.Gauges) {
		base, labels := splitLabels(key)
		f := family(promName(base), "gauge")
		f.series = append(f.series, promSeries{labels: labels, value: formatFloat(s.Gauges[key])})
	}
	for _, key := range sortedKeys(s.Histograms) {
		h := s.Histograms[key]
		base, labels := splitLabels(key)
		f := family(promName(base)+"_seconds", "histogram")
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			le := formatFloat(float64(b.UpperUS) / 1e6)
			f.series = append(f.series, promSeries{
				labels: joinLabels(labels, `le="`+le+`"`),
				value:  strconv.FormatInt(cum, 10),
				isLE:   true,
			})
		}
		f.series = append(f.series,
			promSeries{labels: joinLabels(labels, `le="+Inf"`), value: strconv.FormatInt(h.Count, 10), isLE: true},
			promSeries{labels: labels, value: formatFloat(h.Sum.Seconds()), suffix: "_sum"},
			promSeries{labels: labels, value: strconv.FormatInt(h.Count, 10), suffix: "_count"},
		)
	}
	names := make([]string, 0, len(fams))
	for name := range fams { //lint:allow maporder(sorted on the next line)
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		if f.typ != "histogram" {
			sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		}
		for _, sr := range f.series {
			line := name
			switch {
			case sr.isLE:
				line += "_bucket"
			case sr.suffix != "":
				line += sr.suffix
			}
			if sr.labels != "" {
				line += "{" + sr.labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", line, sr.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// EnableRuntimeMetrics registers a scrape hook that samples the Go
// runtime into gauges — goroutine count, heap allocation, GC cycles and
// cumulative pause — so every /metrics scrape carries process health
// next to the search metrics. Idempotent: Mount calls it for each mux
// the registry is exposed on, and only the first call installs the
// hook. There is no background sampler goroutine; the cost is paid on
// scrape (ReadMemStats briefly stops the world, which a scrape interval
// amortizes to nothing).
func (r *Registry) EnableRuntimeMetrics() {
	r.runtimeOnce.Do(func() {
		r.OnScrape(func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			r.Gauge("go.goroutines").Set(float64(runtime.NumGoroutine()))
			r.Gauge("go.heap.alloc.bytes").Set(float64(ms.HeapAlloc))
			r.Gauge("go.heap.objects").Set(float64(ms.HeapObjects))
			r.Gauge("go.gc.cycles").Set(float64(ms.NumGC))
			r.Gauge("go.gc.pause.total.ms").Set(float64(ms.PauseTotalNs) / 1e6)
		})
	})
}
