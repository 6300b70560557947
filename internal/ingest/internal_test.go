package ingest

// Tests of unexported helpers. Anything that imports package simulate
// must live in the external ingest_test package instead: simulate
// depends on ingest (its parse-back runs through ParseLine), so an
// internal test file importing simulate would close an import cycle.

import "testing"

func TestSniffers(t *testing.T) {
	cases := []struct {
		line       string
		ras, event bool
	}{
		{"2005-06-03-15.42.50.363779 R02-M1-N0 RAS KERNEL FATAL x", true, false},
		{"2006-03-19 04:11:02 c0-0c1s2 ec_heartbeat_stop x", false, true},
		{"Mar  7 14:30:05 ln42 kernel: x", false, false},
		{"", false, false},
		{"2006-03-19", false, false},
	}
	for _, tc := range cases {
		if got := sniffRAS(tc.line); got != tc.ras {
			t.Errorf("sniffRAS(%q) = %v", tc.line, got)
		}
		if got := sniffEvent(tc.line); got != tc.event {
			t.Errorf("sniffEvent(%q) = %v", tc.line, got)
		}
	}
}

func TestPlainToken(t *testing.T) {
	cases := map[string]bool{
		"ln1": true, "tbird-admin1": true, "R02-M1-N0": true,
		"": false, ".hidden": false, "a/b": false, "x y": false, "#@!": false,
	}
	for in, want := range cases {
		if got := plainToken(in); got != want {
			t.Errorf("plainToken(%q) = %v, want %v", in, got, want)
		}
	}
}
