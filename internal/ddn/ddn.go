// Package ddn implements Red Storm's non-syslog logging dialects and
// paths. Red Storm logs arrive three ways (Section 3.1):
//
//   - disk and RAID controller messages from the DDN subsystem (bodies
//     beginning "DMT_..."), relayed over a 100 Mb network to a DDN-specific
//     RAS machine running syslog-ng;
//   - Linux-node syslog (login, Lustre I/O, management nodes), handled by
//     package syslogng with severities stored;
//   - event-router messages from compute nodes, SeaStar NICs, and the
//     management hierarchy (bodies beginning "ec_..."), carried over the
//     reliable TCP RAS network to the System Management Workstation (SMW).
//     This path is not syslog and has no severity analog.
//
// This package renders and parses the SMW event format and provides
// constructors for the DMT_* and ec_* message bodies of Table 4.
package ddn

import (
	"fmt"
	"strings"
	"time"

	"whatsupersay/internal/logrec"
)

// EventTimeLayout is the SMW event log timestamp (one-second granularity).
const EventTimeLayout = "2006-01-02 15:04:05"

// AppendEventLine appends the SMW event-log wire form of a record to
// dst and returns the extended slice (see syslogng.AppendLine for the
// contract):
//
//	2006-03-19 04:11:02 c0-0c1s2 ec_heartbeat_stop src:::c0-0c1s2 ...
func AppendEventLine(dst []byte, r logrec.Record) []byte {
	dst = r.Time.AppendFormat(dst, EventTimeLayout)
	dst = append(dst, ' ')
	dst = append(dst, r.Source...)
	dst = append(dst, ' ')
	return append(dst, r.Body...)
}

// ParseError describes an unparseable SMW event line.
type ParseError struct {
	Line   string
	Reason string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("ddn: parse %q: %s", e.Line, e.Reason)
}

// ParseEvent parses one SMW event line. Malformed lines come back as
// Corrupted records with the raw text preserved.
func ParseEvent(line string) (logrec.Record, *ParseError) {
	rec := logrec.Record{System: logrec.RedStorm, Raw: line}
	if len(line) < len(EventTimeLayout)+1 {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "line shorter than timestamp"}
	}
	ts, err := time.Parse(EventTimeLayout, line[:len(EventTimeLayout)])
	if err != nil {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "bad timestamp: " + err.Error()}
	}
	rec.Time = ts.UTC()
	rest := line[len(EventTimeLayout):]
	if !strings.HasPrefix(rest, " ") {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "missing separator"}
	}
	rest = rest[1:]
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		rec.Corrupted = true
		return rec, &ParseError{Line: line, Reason: "missing source field"}
	}
	rec.Source = rest[:sp]
	rec.Body = rest[sp+1:]
	return rec, nil
}

// The DDN subsystem "generates a great variety of alert patterns that all
// mean 'disk failure'" (Section 3.2.1). These constructors produce the
// Table 4 DMT_* body shapes; the variety is deliberate.

// BusParityBody is the DMT_HINT host-bus parity warning (H/BUS_PAR).
func BusParityBody(host, code string, tier, lun int) string {
	return fmt.Sprintf("DMT_HINT Warning: Verify Host %s bus parity error: %s Tier:%d LUN:%d", host, code, tier, lun)
}

// AddrErrBody is the DMT_102 address error (H/ADDR_ERR).
func AddrErrBody(lun, command int, address string, length int) string {
	return fmt.Sprintf("DMT_102 Address error LUN:%d command:%d address:%s length:%d Anonymous", lun, command, address, length)
}

// CmdAbortBody is the DMT_310 command abort (H/CMD_ABORT).
func CmdAbortBody(cmd string, lun, lane, t int) string {
	return fmt.Sprintf("DMT_310 Command Aborted: SCSI cmd:%s LUN %d DMT_310 Lane:%d T:%d", cmd, lun, lane, t)
}

// DiskFailBody is the DMT_DINT failing-disk notice (H/DSK_FAIL).
func DiskFailBody(channel string) string {
	return fmt.Sprintf("DMT_DINT Failing Disk %s", channel)
}

// HeartbeatStopBody is the ec_heartbeat_stop event (I/HBEAT).
func HeartbeatStopBody(src, svc string) string {
	return fmt.Sprintf("ec_heartbeat_stop src:::%s svc:::%s warn node heartbeat_fault", src, svc)
}

// ToastedBody is the ec_console_log PANIC event (I/TOAST).
func ToastedBody(src, svc string) string {
	return fmt.Sprintf("ec_console_log src:::%s svc:::%s PANIC_SP WE ARE TOASTED!", src, svc)
}
