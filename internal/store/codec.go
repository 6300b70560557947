package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// enc is an append-only encoder for the store's wire formats. Integers
// are unsigned varints unless a fixed width is structural (frame
// headers, the segment footer); strings are length-prefixed.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) u32(v uint32)     { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)     { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) byte(c byte)      { e.b = append(e.b, c) }
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps a signed value to the unsigned one its varint encodes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// dec decodes the wire formats with sticky error handling: the first
// malformed field poisons the decoder and every later read returns the
// zero value, so decode paths can run straight-line and check err once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("store: corrupt %s at offset %d", what, d.off)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("byte")
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// The two posting-set encodings: a delta-encoded ordinal list for
// sparse sets and raw bitmap words for dense ones — the classic
// compressed-bitmap trade collapsed to its two extreme cases.
const (
	postList   = 0
	postBitmap = 1
)

// appendPostings encodes the sorted ordinal set ords over a universe of
// n records, choosing the denser-friendly bitmap form once the set
// covers more than 1/16 of the universe (a varint delta costs ≥ 1 byte
// per member; a bitmap costs n/8 bytes regardless).
func appendPostings(e *enc, ords []uint32, n int) {
	if len(ords) > n/16 && n >= 64 {
		e.byte(postBitmap)
		words := make([]uint64, (n+63)/64)
		for _, o := range ords {
			words[o/64] |= 1 << (o % 64)
		}
		e.uvarint(uint64(len(words)))
		for _, w := range words {
			e.u64(w)
		}
		return
	}
	e.byte(postList)
	e.uvarint(uint64(len(ords)))
	prev := uint32(0)
	for _, o := range ords {
		e.uvarint(uint64(o - prev))
		prev = o
	}
}

// decodePostings reads one posting set back as a sorted ordinal slice.
func decodePostings(d *dec) []uint32 {
	switch d.byte() {
	case postBitmap:
		nw := d.uvarint()
		if d.err != nil || nw > uint64(len(d.b)-d.off)/8 {
			d.fail("posting bitmap")
			return nil
		}
		var ords []uint32
		for w := uint64(0); w < nw; w++ {
			if d.off+8 > len(d.b) {
				d.fail("posting bitmap word")
				return nil
			}
			word := binary.LittleEndian.Uint64(d.b[d.off:])
			d.off += 8
			for word != 0 {
				ords = append(ords, uint32(w*64)+uint32(bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		return ords
	case postList:
		cnt := d.uvarint()
		if d.err != nil || cnt > uint64(len(d.b)-d.off) {
			d.fail("posting list")
			return nil
		}
		ords := make([]uint32, 0, cnt)
		cur := uint32(0)
		for i := uint64(0); i < cnt; i++ {
			cur += uint32(d.uvarint())
			ords = append(ords, cur)
		}
		if d.err != nil {
			return nil
		}
		return ords
	default:
		d.fail("posting tag")
		return nil
	}
}

// unionSorted merges sorted ordinal lists into one sorted, deduplicated
// list (k-way, but k is the number of requested predicate values —
// small — so repeated two-way merges are fine).
func unionSorted(lists [][]uint32) []uint32 {
	var out []uint32
	for _, l := range lists {
		out = mergeTwo(out, l)
	}
	return out
}

func mergeTwo(a, b []uint32) []uint32 {
	if len(a) == 0 {
		return append([]uint32(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// intersectSorted intersects two sorted ordinal lists.
func intersectSorted(a, b []uint32) []uint32 {
	out := a[:0:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// dict interns strings during a segment build, assigning dense ids in
// first-seen order.
type dict struct {
	vals []string
	ids  map[string]uint32
}

func (d *dict) id(s string) uint32 {
	if d.ids == nil {
		d.ids = make(map[string]uint32)
	}
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.vals))
	d.vals = append(d.vals, s)
	d.ids[s] = id
	return id
}

// appendDict encodes a string table.
func appendDict(e *enc, vals []string) {
	e.uvarint(uint64(len(vals)))
	for _, v := range vals {
		e.str(v)
	}
}

// decodeDict reads a string table back.
func decodeDict(d *dec) []string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		d.fail("dict")
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.str())
	}
	if d.err != nil {
		return nil
	}
	return out
}
