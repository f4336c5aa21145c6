package main

import (
	"os"
	"testing"
)

// Every set-up must boot on empty state, even when earlier set-ups of
// the same workload ran in the same process: a primary that recovered
// an earlier topology's WAL would grow its state run after run.
func TestSetupStartsFromEmptyState(t *testing.T) {
	w, _ := workloadByName("customize")
	cfg := config{seed: 3, cities: 1, senders: 2, seeded: 5, dir: t.TempDir()}
	var dirs []string
	for i := 0; i < 2; i++ {
		e, err := setup(cfg, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Cities map[string]struct {
				Groups   int `json:"groups"`
				Packages int `json:"packages"`
			} `json:"cities"`
		}
		err = e.getJSON(e.top.primary+"/healthz", &h)
		dirs = append(dirs, e.dir)
		e.close()
		if err != nil {
			t.Fatal(err)
		}
		for key, c := range h.Cities {
			if c.Groups != cfg.seeded || c.Packages != cfg.seeded {
				t.Errorf("set-up %d, city %s: %d groups and %d packages, want the %d seeded", i, key, c.Groups, c.Packages, cfg.seeded)
			}
		}
	}
	for _, d := range dirs {
		if _, err := os.Stat(d); !os.IsNotExist(err) {
			t.Errorf("state directory %s left behind after close (%v)", d, err)
		}
	}
}
