package main

import "testing"

const promText = `# HELP gt_wal_fsync_seconds WAL fsync latency.
# TYPE gt_wal_fsync_seconds histogram
gt_wal_fsync_seconds_bucket{le="0.001"} 3
gt_wal_fsync_seconds_bucket{le="+Inf"} 4
gt_wal_fsync_seconds_sum 0.0125
gt_wal_fsync_seconds_count 4
gt_wal_fsync_seconds_bucket{size="lt1MiB",le="+Inf"} 4
gt_wal_fsync_seconds_sum{size="lt1MiB"} 0.0125
gt_wal_fsync_seconds_count{size="lt1MiB"} 4
# TYPE gt_bytecache_hits_total counter
gt_bytecache_hits_total{city="benchcity00"} 120
gt_bytecache_hits_total{city="odd \"quoted\" \\ city, with } brace"} 5 1700000000000
gt_router_reads_total 1e+06
`

func TestParseProm(t *testing.T) {
	p, err := parseProm(promText)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 10 {
		t.Fatalf("parsed %d samples, want 10", len(p))
	}
	cases := []struct {
		name  string
		match []string
		want  float64
	}{
		{"gt_wal_fsync_seconds_count", nil, 8},
		{"gt_wal_fsync_seconds_count", []string{"size", ""}, 4},
		{"gt_wal_fsync_seconds_sum", []string{"size", "lt1MiB"}, 0.0125},
		{"gt_bytecache_hits_total", nil, 125},
		{"gt_bytecache_hits_total", []string{"city", `odd "quoted" \ city, with } brace`}, 5},
		{"gt_router_reads_total", nil, 1e6},
		{"gt_missing_total", nil, 0},
	}
	for _, c := range cases {
		if got := p.sum(c.name, c.match...); got != c.want {
			t.Errorf("sum(%s, %v) = %v, want %v", c.name, c.match, got, c.want)
		}
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, text := range []string{
		"gt_x{city=\"a\" 1\n",
		"gt_x{city=a} 1\n",
		"gt_x not-a-number\n",
		"gt_x\n",
	} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("parseProm(%q) succeeded, want an error", text)
		}
	}
}

func TestDelta(t *testing.T) {
	before, _ := parseProm("gt_wal_append_seconds_count 10\n")
	after, _ := parseProm("gt_wal_append_seconds_count 25\n")
	if got := delta(before, after, "gt_wal_append_seconds_count"); got != 15 {
		t.Errorf("delta = %v, want 15", got)
	}
}
