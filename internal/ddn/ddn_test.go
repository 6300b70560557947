package ddn

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"whatsupersay/internal/logrec"
)

func mkEvent() logrec.Record {
	return logrec.Record{
		Time:   time.Date(2006, time.March, 19, 4, 11, 2, 0, time.UTC),
		System: logrec.RedStorm,
		Source: "c0-0c1s2",
		Body:   HeartbeatStopBody("c0-0c1s2", "c0-0c1s2"),
	}
}

// eventLine renders a record's SMW wire line.
func eventLine(r logrec.Record) string { return string(AppendEventLine(nil, r)) }

func TestAppendEventLine(t *testing.T) {
	got := eventLine(mkEvent())
	want := "2006-03-19 04:11:02 c0-0c1s2 ec_heartbeat_stop src:::c0-0c1s2 svc:::c0-0c1s2 warn node heartbeat_fault"
	if got != want {
		t.Errorf("AppendEventLine = %q, want %q", got, want)
	}
	prefix := []byte("kept ")
	if got := string(AppendEventLine(prefix, mkEvent())); got != "kept "+want {
		t.Errorf("AppendEventLine must append to dst, got %q", got)
	}
}

func TestParseEventRoundTrip(t *testing.T) {
	orig := mkEvent()
	rec, perr := ParseEvent(eventLine(orig))
	if perr != nil {
		t.Fatalf("ParseEvent: %v", perr)
	}
	if !rec.Time.Equal(orig.Time) || rec.Source != orig.Source || rec.Body != orig.Body {
		t.Errorf("round trip mismatch: %+v", rec)
	}
	if rec.Severity != logrec.SeverityUnknown {
		t.Error("the TCP path has no severity analog (Section 3.2)")
	}
}

func TestParseEventCorrupt(t *testing.T) {
	cases := []string{
		"",
		"2006-03-19",
		"not-a-date xx:yy:zz c0-0c1s2 body",
		"2006-03-19 04:11:02",  // nothing after timestamp
		"2006-03-19 04:11:02 ", // no source token
	}
	for _, line := range cases {
		rec, perr := ParseEvent(line)
		if perr == nil {
			t.Errorf("ParseEvent(%q) expected error", line)
		}
		if !rec.Corrupted || rec.Raw != line {
			t.Errorf("ParseEvent(%q) must preserve raw and mark corrupted", line)
		}
	}
}

func TestBodyBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_ = rng
	cases := []struct {
		body string
		want string
	}{
		{BusParityBody("2", "0200", 5, 4), "DMT_HINT Warning: Verify Host 2 bus parity error: 0200 Tier:5 LUN:4"},
		{AddrErrBody(0, 28, "f000000", 1), "DMT_102 Address error LUN:0 command:28 address:f000000 length:1 Anonymous"},
		{CmdAbortBody("2A", 2, 3, 299), "DMT_310 Command Aborted: SCSI cmd:2A LUN 2 DMT_310 Lane:3 T:299"},
		{DiskFailBody("2A"), "DMT_DINT Failing Disk 2A"},
		{ToastedBody("c1-2c0s3", "c1-2c0s3"), "ec_console_log src:::c1-2c0s3 svc:::c1-2c0s3 PANIC_SP WE ARE TOASTED!"},
	}
	for _, tc := range cases {
		if tc.body != tc.want {
			t.Errorf("body = %q, want %q", tc.body, tc.want)
		}
	}
}

func TestEventTimestampSecondGranularity(t *testing.T) {
	r := mkEvent()
	r.Time = r.Time.Add(750 * time.Millisecond)
	rec, perr := ParseEvent(eventLine(r))
	if perr != nil {
		t.Fatal(perr)
	}
	if rec.Time.Nanosecond() != 0 {
		t.Error("event dialect carries one-second granularity")
	}
	if got := rec.Time.Truncate(time.Second); !got.Equal(r.Time.Truncate(time.Second)) {
		t.Errorf("second-truncated time mismatch: %v vs %v", got, r.Time)
	}
}

func TestHeartbeatBodyMatchesPaperShape(t *testing.T) {
	b := HeartbeatStopBody("c0-0c0s0", "c0-0c0s1")
	if !strings.Contains(b, "src:::c0-0c0s0") || !strings.Contains(b, "svc:::c0-0c0s1") {
		t.Errorf("heartbeat body = %q", b)
	}
	if !strings.Contains(b, "heartbeat_fault") {
		t.Errorf("heartbeat body missing fault marker: %q", b)
	}
}
