package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// ExpoWriter emits Prometheus text exposition format (version 0.0.4).
// Errors are sticky: the first write failure is remembered and every
// later call is a no-op, so callers chain Family/Sample calls and check
// Flush once. One ExpoWriter serves one scrape.
//
// The format requires all samples of a family to be grouped under a
// single HELP/TYPE header, so a caller writes one family at a time:
// Family, then every sample of it. The /metrics handler writes the
// HTTP routes' families and the per-model families, whose values live
// in swappable engines, through one writer.
type ExpoWriter struct {
	w   *bufio.Writer
	err error
}

// NewExpoWriter wraps w for one scrape.
func NewExpoWriter(w io.Writer) *ExpoWriter {
	return &ExpoWriter{w: bufio.NewWriter(w)}
}

// Flush drains the buffer and reports the first error encountered.
func (x *ExpoWriter) Flush() error {
	if x.err != nil {
		return x.err
	}
	return x.w.Flush()
}

func (x *ExpoWriter) write(s string) {
	if x.err == nil {
		_, x.err = x.w.WriteString(s)
	}
}

// Family writes the HELP/TYPE header opening a metric family. All of
// the family's samples must follow before the next Family call.
func (x *ExpoWriter) Family(name, help string, kind Kind) {
	x.write("# HELP ")
	x.write(name)
	x.write(" ")
	x.write(escapeHelp(help))
	x.write("\n# TYPE ")
	x.write(name)
	x.write(" ")
	x.write(kind.String())
	x.write("\n")
}

// Sample writes one float sample line.
func (x *ExpoWriter) Sample(name string, labels []Label, v float64) {
	x.sampleStart(name, labels, "", "")
	x.write(formatFloat(v))
	x.write("\n")
}

// IntSample writes one integer sample line (counters, gauges).
func (x *ExpoWriter) IntSample(name string, labels []Label, v int64) {
	x.sampleStart(name, labels, "", "")
	x.write(strconv.FormatInt(v, 10))
	x.write("\n")
}

// HistogramSample writes the full sample set of one histogram instance:
// cumulative _bucket lines for every non-empty bucket boundary plus
// le="+Inf", then _sum and _count. Emitting only occupied boundaries
// keeps the output proportional to the latency spread actually
// observed, not the ~2400 buckets backing it — sparse buckets are valid
// exposition as long as the counts are cumulative.
func (x *ExpoWriter) HistogramSample(name string, labels []Label, h *Histogram) {
	scale := h.scale()
	var cum int64
	for i := 0; i < numBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		x.sampleStart(name+"_bucket", labels, "le", formatFloat(float64(bucketUpper(i))*scale))
		x.write(strconv.FormatInt(cum, 10))
		x.write("\n")
	}
	x.sampleStart(name+"_bucket", labels, "le", "+Inf")
	x.write(strconv.FormatInt(cum, 10))
	x.write("\n")
	x.sampleStart(name+"_sum", labels, "", "")
	x.write(formatFloat(float64(h.Sum()) * scale))
	x.write("\n")
	x.sampleStart(name+"_count", labels, "", "")
	x.write(strconv.FormatInt(h.Count(), 10))
	x.write("\n")
}

// sampleStart writes `name{label="v",...} ` with an optional extra
// label (the histogram's le) appended last.
func (x *ExpoWriter) sampleStart(name string, labels []Label, extraKey, extraVal string) {
	x.write(name)
	if len(labels) > 0 || extraKey != "" {
		x.write("{")
		for i, l := range labels {
			if i > 0 {
				x.write(",")
			}
			x.write(l.Key)
			x.write(`="`)
			x.write(escapeLabel(l.Value))
			x.write(`"`)
		}
		if extraKey != "" {
			if len(labels) > 0 {
				x.write(",")
			}
			x.write(extraKey)
			x.write(`="`)
			x.write(escapeLabel(extraVal))
			x.write(`"`)
		}
		x.write("}")
	}
	x.write(" ")
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	return labelEscaper.Replace(s)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	return helpEscaper.Replace(s)
}
