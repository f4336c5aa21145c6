package server

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestParseStreamParams pins the /wal query contract, in particular that
// a non-positive heartbeat is rejected outright rather than clamped, and
// that the stream=1 older followers send is accepted and ignored.
func TestParseStreamParams(t *testing.T) {
	cases := []struct {
		name  string
		query string
		ok    bool
		want  walStreamParams
	}{
		{name: "defaults", query: "", ok: true,
			want: walStreamParams{hb: defaultHeartbeat}},
		{name: "legacy stream ignored", query: "stream=1", ok: true,
			want: walStreamParams{hb: defaultHeartbeat}},
		{name: "hb", query: "hb=1s", ok: true,
			want: walStreamParams{hb: time.Second}},
		{name: "hb clamped up", query: "hb=1ms", ok: true,
			want: walStreamParams{hb: minHeartbeat}},
		{name: "hb clamped down", query: "hb=5m", ok: true,
			want: walStreamParams{hb: maxHeartbeat}},
		{name: "hb zero rejected", query: "hb=0s", ok: false},
		{name: "hb negative rejected", query: "hb=-100ms", ok: false},
		{name: "hb garbage rejected", query: "hb=fast", ok: false},
		{name: "fid", query: "fid=follower-b", ok: true,
			want: walStreamParams{hb: defaultHeartbeat, fid: "follower-b"}},
		{name: "fid too long rejected",
			query: "fid=" + strings.Repeat("x", maxFollowerIDLen+1), ok: false},
		{name: "fid at cap", query: "fid=" + strings.Repeat("x", maxFollowerIDLen), ok: true,
			want: walStreamParams{hb: defaultHeartbeat, fid: strings.Repeat("x", maxFollowerIDLen)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			r := httptest.NewRequest("GET", "/cities/x/wal?"+tc.query, nil)
			p, ok := parseStreamParams(w, r)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v (status %d, body %s)", ok, tc.ok, w.Code, w.Body)
			}
			if !tc.ok {
				if w.Code != 400 {
					t.Fatalf("status = %d, want 400", w.Code)
				}
				return
			}
			if p != tc.want {
				t.Fatalf("params = %+v, want %+v", p, tc.want)
			}
		})
	}
}
