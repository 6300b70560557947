package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"whatsupersay/internal/logrec"
)

// The write-ahead tail: entries appended since the last seal live in
// wal.log as self-delimiting, self-checking frames
//
//	length u32 | crc32(payload) u32 | payload
//
// so replay on open can stop exactly at the first torn or damaged byte.
// A crash (or a fault-injected tear/garble) loses at most the frames at
// and after the damage point — never a sealed segment, and never a
// frame whose checksum does not verify.
//
// Frame zero is always a header frame ("WALH" + the store's seal epoch,
// the nextSeg value at the instant the wal was last rewritten). The
// epoch is what makes seal crash-recovery exact: a seal commits its
// segment first and rewrites the wal second, so a kill between the two
// leaves a wal whose epoch trails the segment inventory — the signal
// that the wal still carries frames for entries the just-committed
// segment already holds, which Open then subtracts (see Open).

const (
	walFrameHdr = 8
	// walMaxFrame bounds a frame's claimed payload length; anything
	// larger is treated as damage rather than an allocation request.
	walMaxFrame = 1 << 24
	// walHeaderMagic opens the mandatory first frame of every wal.
	walHeaderMagic = "WALH"
)

// walHeaderLen bounds the encoded header frame's length (magic plus
// the epoch's uvarint).
const walHeaderLen = walFrameHdr + len(walHeaderMagic) + binary.MaxVarintLen64

// appendWalHeader encodes the mandatory header frame that opens every
// wal: the seal epoch, CRC-framed like any other frame so a torn or
// garbled header reads as damage, never as a bogus epoch.
func appendWalHeader(b []byte, epoch int) []byte {
	e, start := openWalFrame(b)
	e.b = append(e.b, walHeaderMagic...)
	e.uvarint(uint64(epoch))
	return closeWalFrame(e.b, start)
}

// walFrameLen is the exact encoded length of en's wal frame, so a
// buffer of many frames is sized once.
func walFrameLen(en *Entry) int {
	r := &en.Record
	n := walFrameHdr + uvarintLen(r.Seq) + uvarintLen(zigzag(r.Time.UnixNano())) +
		uvarintLen(uint64(r.Severity)) + 1
	for _, s := range [...]string{r.Source, en.Category, r.Program, r.Facility, r.Body} {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	return n
}

// appendWalFrame encodes one entry as a wal frame onto b. The payload
// is self-contained (absolute timestamp, full strings): wal entries
// predate the dictionaries a seal would build.
func appendWalFrame(b []byte, en *Entry) []byte {
	p, start := openWalFrame(b)
	p.uvarint(en.Record.Seq)
	p.varint(en.Record.Time.UnixNano())
	p.str(en.Record.Source)
	p.str(en.Category)
	p.str(en.Record.Program)
	p.str(en.Record.Facility)
	p.str(en.Record.Body)
	p.uvarint(uint64(en.Record.Severity))
	var flags byte
	if en.Kept {
		flags |= entryFlagKept
	}
	if en.Record.Corrupted {
		flags |= entryFlagCorrupted
	}
	p.byte(flags)
	return closeWalFrame(p.b, start)
}

// openWalFrame reserves a frame header at the end of b and returns an
// encoder that appends the payload in place after it.
func openWalFrame(b []byte) (enc, int) {
	return enc{b: append(b, make([]byte, walFrameHdr)...)}, len(b)
}

// closeWalFrame fills in the header reserved at b[start:] — the
// payload's length and CRC — once the payload follows it.
func closeWalFrame(b []byte, start int) []byte {
	payload := b[start+walFrameHdr:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b
}

// decodeWalEntry decodes one frame payload.
func decodeWalEntry(p []byte, sys logrec.System) (Entry, error) {
	d := &dec{b: p}
	var en Entry
	en.Record.Seq = d.uvarint()
	nanos := d.varint()
	en.Record.Source = d.str()
	en.Category = d.str()
	en.Record.Program = d.str()
	en.Record.Facility = d.str()
	en.Record.Body = d.str()
	en.Record.Severity = logrec.Severity(d.uvarint())
	flags := d.byte()
	if d.err != nil {
		return Entry{}, d.err
	}
	if d.off != len(p) {
		return Entry{}, fmt.Errorf("store: wal frame has %d trailing bytes", len(p)-d.off)
	}
	en.Record.Time = unixNano(nanos)
	en.Record.System = sys
	en.Record.Corrupted = flags&entryFlagCorrupted != 0
	en.Kept = flags&entryFlagKept != 0
	return en, nil
}

// replayWal decodes raw wal bytes into entries, stopping at the first
// frame that is torn (short) or fails its checksum. It returns the
// entries recovered, the seal epoch from the header frame (-1 when raw
// is empty or the header itself is damaged), the byte offset of the
// first damaged frame (== len(raw) for a clean tail), and a description
// of the damage when there is any.
func replayWal(raw []byte, sys logrec.System) (entries []Entry, epoch, good int, damage error) {
	epoch = -1
	off := 0
	for off < len(raw) {
		if len(raw)-off < walFrameHdr {
			return entries, epoch, off, fmt.Errorf("torn frame header (%d trailing bytes)", len(raw)-off)
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		sum := binary.LittleEndian.Uint32(raw[off+4:])
		if n > walMaxFrame || n > len(raw)-off-walFrameHdr {
			return entries, epoch, off, fmt.Errorf("torn frame at offset %d (claims %d bytes)", off, n)
		}
		payload := raw[off+walFrameHdr : off+walFrameHdr+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return entries, epoch, off, fmt.Errorf("frame checksum mismatch at offset %d", off)
		}
		if off == 0 {
			// Frame zero must be the header; a wal without one cannot be
			// trusted (its epoch, and so its dedup story, is unknown).
			if len(payload) < len(walHeaderMagic) || string(payload[:4]) != walHeaderMagic {
				return entries, epoch, off, fmt.Errorf("missing wal header frame")
			}
			d := &dec{b: payload, off: len(walHeaderMagic)}
			e := d.uvarint()
			if d.err != nil || d.off != len(payload) {
				return entries, epoch, off, fmt.Errorf("corrupt wal header frame")
			}
			epoch = int(e)
			off += walFrameHdr + n
			continue
		}
		en, err := decodeWalEntry(payload, sys)
		if err != nil {
			return entries, epoch, off, fmt.Errorf("frame at offset %d: %w", off, err)
		}
		entries = append(entries, en)
		off += walFrameHdr + n
	}
	return entries, epoch, off, nil
}
