package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: series (name plus its
// label block, verbatim) to value.
type scrape map[string]float64

// parseExposition reads the 0.0.4 text format: comment lines are
// skipped, every other line is `name{labels} value [timestamp]`.
func parseExposition(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the label block (which may hold spaces inside
		// quoted values), or the bare name.
		cut := strings.LastIndexByte(line, '}')
		if cut < 0 {
			cut = strings.IndexByte(line, ' ') - 1
		}
		if cut < 0 || cut+1 >= len(line) {
			return nil, fmt.Errorf("exposition: malformed line %q", line)
		}
		fields := strings.Fields(line[cut+1:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("exposition: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition: value of %q: %w", line, err)
		}
		out[line[:cut+1]] = v
	}
	return out, sc.Err()
}

// sum adds up every series of the family whose label block contains all
// the given `key="value"` fragments — e.g. a histogram's _count across
// status codes for one route.
func (s scrape) sum(name string, labels ...string) float64 {
	var total float64
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys) // float addition in a fixed order: exact repeats stay exact
next:
	for _, k := range keys {
		base, block, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(block, l) {
				continue next
			}
		}
		total += s[k]
	}
	return total
}

// scrapeDiff is the change of every counter-like series between two
// scrapes of one process.
type scrapeDiff struct{ before, after scrape }

func (d scrapeDiff) delta(name string, labels ...string) float64 {
	return d.after.sum(name, labels...) - d.before.sum(name, labels...)
}

// histMean is the mean observation of a histogram family over the
// window, in the family's own unit, and how many observations it had.
func (d scrapeDiff) histMean(family string, labels ...string) (mean float64, count float64) {
	count = d.delta(family+"_count", labels...)
	if count <= 0 {
		return 0, 0
	}
	return d.delta(family+"_sum", labels...) / count, count
}
