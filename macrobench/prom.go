package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promScrape is one parsed /metrics page.
type promScrape []promSample

// parseProm parses the Prometheus text format (version 0.0.4): comment
// and blank lines are skipped, label values are unescaped, and an
// optional trailing timestamp is ignored.
func parseProm(text string) (promScrape, error) {
	var out promScrape
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.name, line = line[:i], line[i:]
	if line[0] == '{' {
		rest, err := parseLabels(line[1:], s.labels)
		if err != nil {
			return s, fmt.Errorf("%s: %w", s.name, err)
		}
		line = rest
	}
	fields := strings.Fields(line)
	if len(fields) == 0 || len(fields) > 2 {
		return s, fmt.Errorf("%s: want a value and an optional timestamp, got %q", s.name, line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("%s: %w", s.name, err)
	}
	s.value = v
	return s, nil
}

// parseLabels reads `k="v",...}` into labels and returns what follows the
// closing brace.
func parseLabels(in string, labels map[string]string) (string, error) {
	for {
		in = strings.TrimLeft(in, " ,")
		if strings.HasPrefix(in, "}") {
			return in[1:], nil
		}
		eq := strings.IndexByte(in, '=')
		if eq <= 0 || eq+1 >= len(in) || in[eq+1] != '"' {
			return "", fmt.Errorf("malformed label in %q", in)
		}
		key := strings.TrimSpace(in[:eq])
		var val strings.Builder
		j := eq + 2
		for ; j < len(in) && in[j] != '"'; j++ {
			if in[j] == '\\' && j+1 < len(in) {
				j++
				switch in[j] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(in[j])
				}
				continue
			}
			val.WriteByte(in[j])
		}
		if j >= len(in) {
			return "", fmt.Errorf("unterminated label value for %s", key)
		}
		labels[key] = val.String()
		in = in[j+1:]
	}
}

// sum adds every series of name whose labels include all of match; a
// match value of "" requires the label to be absent.
func (p promScrape) sum(name string, match ...string) float64 {
	var total float64
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// delta is after − before for the summed series.
func delta(before, after promScrape, name string, match ...string) float64 {
	return after.sum(name, match...) - before.sum(name, match...)
}

// scrapeMetrics fetches and parses base/metrics.
func scrapeMetrics(hc *http.Client, base string) (promScrape, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s/metrics: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %d", base, resp.StatusCode)
	}
	return parseProm(string(body))
}
