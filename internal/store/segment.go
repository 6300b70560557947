package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"whatsupersay/internal/logrec"
)

// Segment wire format (little-endian, varint-heavy):
//
//	header   magic "ALSG" | version u8 | system u8
//	records  count entries back-to-back, sorted by (time, seq):
//	           seq uvarint | Δt-nanos-from-min uvarint |
//	           sourceID catID progID facID uvarint | severity uvarint |
//	           flags u8 (kept, corrupted) | body string
//	dicts    four string tables: sources, categories, programs, facilities
//	postings per source id, per category id: posting set over record
//	         ordinals; then distinct severities, each (value, posting set)
//	sparse   one entry per indexInterval records: (byte offset into the
//	index    records region, Δt-nanos of the block's first record) —
//	         enough to seek a time-range scan or decode one index block
//	         for a postings hit without touching the rest of the segment
//	footer   fixed 64 bytes: recordsOff dictsOff postingsOff indexOff
//	         count u64 ×5 | minNanos maxNanos u64 ×2 | crc32(file[:crc])
//	         u32 | magic "GSLA" u32
//
// The footer checksum covers every byte before it, so a torn or bit-
// flipped segment is detected on open and excluded wholesale; records
// are only ever served from segments whose checksum verified.

const (
	segMagic    = "ALSG"
	segEndMagic = "GSLA"
	segVersion  = 1
	segHdrLen   = 6
	// footer: 5 offsets/counts + 2 timestamps (u64) + crc (u32) + magic (u32).
	segFooterLen = 5*8 + 2*8 + 4 + 4

	// indexInterval is the sparse-index stride: one index point per this
	// many records. Postings scans decode at most indexInterval-1 extra
	// records to reach a hit; time seeks land within one block.
	indexInterval = 64
)

// Entry is one stored alert: the tagged record, its category, and
// whether it survived Algorithm 3.1 (the simultaneous filter). Record.Raw
// is not persisted — the structured fields are the unit of analysis, and
// the wire text is reproducible from the generator when needed.
type Entry struct {
	Record   logrec.Record
	Category string
	Kept     bool
}

// entryBefore orders entries canonically: time, then sequence number.
func entryBefore(a, b Entry) bool { return a.Record.Before(b.Record) }

// sortEntries sorts entries into canonical order.
func sortEntries(entries []Entry) {
	sort.SliceStable(entries, func(i, j int) bool { return entryBefore(entries[i], entries[j]) })
}

// segment is one sealed, immutable, checksum-verified block of entries.
// The encoded blob is memory-mapped (see mmap.go); records are decoded
// on demand during scans, postings and dictionaries are decoded once at
// open (into heap copies, so only record decoding touches the mapping).
type segment struct {
	name string
	// num is the seal sequence number parsed from name (-1 if the name
	// is not of the seg-%08d.seg form); Open's dup-window subtraction
	// compares it against the wal epoch.
	num  int
	sys  logrec.System
	blob []byte
	// ref owns blob's mapping lifetime; nil for heap-backed blobs.
	ref *blobRef

	count              int
	minNanos, maxNanos int64
	recordsOff         int

	sources, categories  []string
	programs, facilities []string
	srcIDs, catIDs       map[string]uint32
	srcPost, catPost     [][]uint32
	sevPost              map[logrec.Severity][]uint32
	// maxSev is the largest severity value any record carries — the
	// columnar scan sizes its ordinal count array by it.
	maxSev logrec.Severity

	// idxOffsets[i] / idxNanos[i] locate record ordinal i*indexInterval.
	idxOffsets []uint32
	idxNanos   []int64
}

const entryFlagKept, entryFlagCorrupted = 1, 2

// buildSegment encodes entries (which must be sorted; Seal sorts) into
// the segment wire form.
func buildSegment(sys logrec.System, entries []Entry) []byte {
	var (
		e                enc
		srcD, catD       dict
		progD, facD      dict
		sevOrds          = map[logrec.Severity][]uint32{}
		idxOffs          []uint32
		idxNanos         []int64
		minN             = entries[0].Record.Time.UnixNano()
		maxN             = entries[len(entries)-1].Record.Time.UnixNano()
		srcOrds, catOrds [][]uint32
	)
	e.b = append(e.b, segMagic...)
	e.byte(segVersion)
	e.byte(byte(sys))

	recordsOff := len(e.b)
	post := func(lists *[][]uint32, id uint32, ord uint32) {
		for uint32(len(*lists)) <= id {
			*lists = append(*lists, nil)
		}
		(*lists)[id] = append((*lists)[id], ord)
	}
	for i, en := range entries {
		nanos := en.Record.Time.UnixNano()
		if i%indexInterval == 0 {
			idxOffs = append(idxOffs, uint32(len(e.b)-recordsOff))
			idxNanos = append(idxNanos, nanos)
		}
		srcID := srcD.id(en.Record.Source)
		catID := catD.id(en.Category)
		post(&srcOrds, srcID, uint32(i))
		post(&catOrds, catID, uint32(i))
		sevOrds[en.Record.Severity] = append(sevOrds[en.Record.Severity], uint32(i))

		e.uvarint(en.Record.Seq)
		e.uvarint(uint64(nanos - minN))
		e.uvarint(uint64(srcID))
		e.uvarint(uint64(catID))
		e.uvarint(uint64(progD.id(en.Record.Program)))
		e.uvarint(uint64(facD.id(en.Record.Facility)))
		e.uvarint(uint64(en.Record.Severity))
		var flags byte
		if en.Kept {
			flags |= entryFlagKept
		}
		if en.Record.Corrupted {
			flags |= entryFlagCorrupted
		}
		e.byte(flags)
		e.str(en.Record.Body)
	}

	dictsOff := len(e.b)
	appendDict(&e, srcD.vals)
	appendDict(&e, catD.vals)
	appendDict(&e, progD.vals)
	appendDict(&e, facD.vals)

	postingsOff := len(e.b)
	for _, ords := range srcOrds {
		appendPostings(&e, ords, len(entries))
	}
	for _, ords := range catOrds {
		appendPostings(&e, ords, len(entries))
	}
	sevs := make([]logrec.Severity, 0, len(sevOrds))
	for s := range sevOrds {
		sevs = append(sevs, s)
	}
	sort.Slice(sevs, func(i, j int) bool { return sevs[i] < sevs[j] })
	e.uvarint(uint64(len(sevs)))
	for _, s := range sevs {
		e.uvarint(uint64(s))
		appendPostings(&e, sevOrds[s], len(entries))
	}

	indexOff := len(e.b)
	e.uvarint(uint64(len(idxOffs)))
	for i := range idxOffs {
		e.uvarint(uint64(idxOffs[i]))
		e.uvarint(uint64(idxNanos[i] - minN))
	}

	e.u64(uint64(recordsOff))
	e.u64(uint64(dictsOff))
	e.u64(uint64(postingsOff))
	e.u64(uint64(indexOff))
	e.u64(uint64(len(entries)))
	e.u64(uint64(minN))
	e.u64(uint64(maxN))
	e.u32(crc32.ChecksumIEEE(e.b))
	e.b = append(e.b, segEndMagic...)
	return e.b
}

// parseSegment validates blob (magic, version, footer checksum) and
// decodes its metadata — dictionaries, postings, sparse index. Records
// stay encoded. Any validation failure returns an error; a segment that
// fails here is never served from.
func parseSegment(name string, blob []byte) (*segment, error) {
	if len(blob) < segHdrLen+segFooterLen {
		return nil, fmt.Errorf("store: segment %s: truncated (%d bytes)", name, len(blob))
	}
	if string(blob[:4]) != segMagic {
		return nil, fmt.Errorf("store: segment %s: bad magic", name)
	}
	if blob[4] != segVersion {
		return nil, fmt.Errorf("store: segment %s: unsupported version %d", name, blob[4])
	}
	if string(blob[len(blob)-4:]) != segEndMagic {
		return nil, fmt.Errorf("store: segment %s: torn tail (end marker missing)", name)
	}
	crcOff := len(blob) - 8
	wantCRC := binary.LittleEndian.Uint32(blob[crcOff:])
	if got := crc32.ChecksumIEEE(blob[:crcOff]); got != wantCRC {
		return nil, fmt.Errorf("store: segment %s: checksum mismatch (got %08x want %08x)", name, got, wantCRC)
	}

	f := blob[len(blob)-segFooterLen : crcOff]
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(f[i*8:]) }
	g := &segment{
		name:       name,
		num:        segNum(name),
		sys:        logrec.System(blob[5]),
		blob:       blob,
		recordsOff: int(u(0)),
		count:      int(u(4)),
		minNanos:   int64(u(5)),
		maxNanos:   int64(u(6)),
	}
	dictsOff, postingsOff, indexOff := int(u(1)), int(u(2)), int(u(3))
	bodyLen := len(blob) - segFooterLen
	if g.recordsOff != segHdrLen || dictsOff < g.recordsOff || postingsOff < dictsOff ||
		indexOff < postingsOff || indexOff > bodyLen {
		return nil, fmt.Errorf("store: segment %s: inconsistent section offsets", name)
	}

	d := &dec{b: blob, off: dictsOff}
	g.sources = decodeDict(d)
	g.categories = decodeDict(d)
	g.programs = decodeDict(d)
	g.facilities = decodeDict(d)
	if d.err != nil || d.off != postingsOff {
		return nil, fmt.Errorf("store: segment %s: bad dictionaries", name)
	}
	g.srcIDs = indexStrings(g.sources)
	g.catIDs = indexStrings(g.categories)

	g.srcPost = make([][]uint32, len(g.sources))
	for i := range g.srcPost {
		g.srcPost[i] = decodePostings(d)
	}
	g.catPost = make([][]uint32, len(g.categories))
	for i := range g.catPost {
		g.catPost[i] = decodePostings(d)
	}
	nSev := d.uvarint()
	if d.err == nil && nSev <= 256 {
		g.sevPost = make(map[logrec.Severity][]uint32, nSev)
		for i := uint64(0); i < nSev; i++ {
			sev := logrec.Severity(d.uvarint())
			g.sevPost[sev] = decodePostings(d)
			if sev > g.maxSev {
				g.maxSev = sev
			}
		}
	} else {
		d.fail("severity postings")
	}
	if d.err != nil || d.off != indexOff {
		return nil, fmt.Errorf("store: segment %s: bad postings", name)
	}

	nIdx := d.uvarint()
	want := (g.count + indexInterval - 1) / indexInterval
	if d.err != nil || int(nIdx) != want {
		return nil, fmt.Errorf("store: segment %s: bad sparse index", name)
	}
	g.idxOffsets = make([]uint32, 0, nIdx)
	g.idxNanos = make([]int64, 0, nIdx)
	for i := uint64(0); i < nIdx; i++ {
		g.idxOffsets = append(g.idxOffsets, uint32(d.uvarint()))
		g.idxNanos = append(g.idxNanos, g.minNanos+int64(d.uvarint()))
	}
	if d.err != nil || d.off != bodyLen {
		return nil, fmt.Errorf("store: segment %s: bad sparse index", name)
	}
	return g, nil
}

func indexStrings(vals []string) map[string]uint32 {
	m := make(map[string]uint32, len(vals))
	for i, v := range vals {
		m[v] = uint32(i)
	}
	return m
}

// raw is one record decoded without materialization: fixed fields as
// values, the body left as a [bodyOff, bodyOff+bodyLen) view into the
// segment blob. Decoding a raw touches no heap — the columnar scan's
// ~0 allocs/record claim rests on it — and materialize turns one into
// an Entry with exactly one allocation (the body string).
type raw struct {
	seq              uint64
	nanos            int64
	srcID, catID     uint32
	progID, facID    uint32
	sev              logrec.Severity
	flags            byte
	bodyOff, bodyLen int
}

// decodeRawAt decodes the record at absolute blob offset off into raw
// form, returning the offset of the record after it. Field order and
// bounds semantics mirror buildSegment; the dictionary-id range checks
// keep a corrupted-but-CRC-colliding blob from indexing out of range.
func (g *segment) decodeRawAt(off int) (raw, int, error) {
	var r raw
	b := g.blob
	bad := func(what string) (raw, int, error) {
		return raw{}, 0, fmt.Errorf("store: segment %s: bad %s at offset %d", g.name, what, off)
	}
	if off < 0 || off > len(b) {
		return bad("record offset")
	}
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return bad("seq")
	}
	r.seq, off = v, off+n
	if v, n = binary.Uvarint(b[off:]); n <= 0 {
		return bad("time")
	}
	r.nanos, off = g.minNanos+int64(v), off+n
	if v, n = binary.Uvarint(b[off:]); n <= 0 || v >= uint64(len(g.sources)) {
		return bad("source id")
	}
	r.srcID, off = uint32(v), off+n
	if v, n = binary.Uvarint(b[off:]); n <= 0 || v >= uint64(len(g.categories)) {
		return bad("category id")
	}
	r.catID, off = uint32(v), off+n
	if v, n = binary.Uvarint(b[off:]); n <= 0 || v >= uint64(len(g.programs)) {
		return bad("program id")
	}
	r.progID, off = uint32(v), off+n
	if v, n = binary.Uvarint(b[off:]); n <= 0 || v >= uint64(len(g.facilities)) {
		return bad("facility id")
	}
	r.facID, off = uint32(v), off+n
	if v, n = binary.Uvarint(b[off:]); n <= 0 {
		return bad("severity")
	}
	r.sev, off = logrec.Severity(v), off+n
	if off >= len(b) {
		return bad("flags")
	}
	r.flags, off = b[off], off+1
	if v, n = binary.Uvarint(b[off:]); n <= 0 {
		return bad("body length")
	}
	off += n
	if v > uint64(len(b)-off) {
		return bad("body")
	}
	r.bodyOff, r.bodyLen = off, int(v)
	return r, off + int(v), nil
}

// materialize builds the Entry a raw record denotes. The body string is
// the one allocation; every other string is a shared dictionary value.
func (g *segment) materialize(r raw) Entry {
	return Entry{
		Record: logrec.Record{
			Seq:       r.seq,
			Time:      time.Unix(0, r.nanos).UTC(),
			System:    g.sys,
			Source:    g.sources[r.srcID],
			Facility:  g.facilities[r.facID],
			Severity:  r.sev,
			Program:   g.programs[r.progID],
			Body:      string(g.blob[r.bodyOff : r.bodyOff+r.bodyLen]),
			Corrupted: r.flags&entryFlagCorrupted != 0,
		},
		Category: g.categories[r.catID],
		Kept:     r.flags&entryFlagKept != 0,
	}
}

// decodeAt decodes the record at absolute blob offset off, returning
// the entry and the offset of the record after it.
func (g *segment) decodeAt(off int) (Entry, int, error) {
	r, next, err := g.decodeRawAt(off)
	if err != nil {
		return Entry{}, 0, err
	}
	return g.materialize(r), next, nil
}

// entries decodes every record in the segment, in stored (canonical)
// order — the bulk path compaction and Open's dup-window subtraction
// use, where postings planning would only add overhead.
func (g *segment) entries() ([]Entry, error) {
	out := make([]Entry, 0, g.count)
	off := g.recordsOff
	for i := 0; i < g.count; i++ {
		en, next, err := g.decodeAt(off)
		if err != nil {
			return nil, err
		}
		out = append(out, en)
		off = next
	}
	return out, nil
}

// candidates plans the postings side of a scan: for each dimension the
// filter constrains, union the requested values' posting sets, then
// intersect across dimensions. It returns (nil, false) when the filter
// names no indexed dimension (the scan must walk the time range) and
// (possibly empty, true) when postings fully decide the candidate set.
func (g *segment) candidates(f Filter) ([]uint32, bool) {
	constrained := false
	var acc []uint32
	apply := func(lists [][]uint32) {
		u := unionSorted(lists)
		if !constrained {
			acc, constrained = u, true
			return
		}
		acc = intersectSorted(acc, u)
	}
	if len(f.Sources) > 0 {
		lists := make([][]uint32, 0, len(f.Sources))
		for _, s := range f.Sources {
			if id, ok := g.srcIDs[s]; ok {
				lists = append(lists, g.srcPost[id])
			}
		}
		apply(lists)
	}
	if len(f.Categories) > 0 {
		lists := make([][]uint32, 0, len(f.Categories))
		for _, c := range f.Categories {
			if id, ok := g.catIDs[c]; ok {
				lists = append(lists, g.catPost[id])
			}
		}
		apply(lists)
	}
	if len(f.Severities) > 0 {
		lists := make([][]uint32, 0, len(f.Severities))
		for _, s := range f.Severities {
			if p, ok := g.sevPost[s]; ok {
				lists = append(lists, p)
			}
		}
		apply(lists)
	}
	return acc, constrained
}

// matchRaw applies the predicates postings do not cover — the Kept flag
// and the body-substring predicate — to a raw record. The body bytes
// are compared in place against bodyPat (the filter's BodyContains,
// converted once per walk), so neither predicate allocates.
func (g *segment) matchRaw(f *Filter, r raw, bodyPat []byte) bool {
	if f.Kept != nil && *f.Kept != (r.flags&entryFlagKept != 0) {
		return false
	}
	return len(bodyPat) == 0 || bytes.Contains(g.blob[r.bodyOff:r.bodyOff+r.bodyLen], bodyPat)
}

// walk drives a segment scan in raw form: postings planning, sparse-
// index seeking, time pruning, and predicate matching all happen here,
// and every matching record is handed to visit without materialization.
// Both read paths sit on top of it — the entry scan materializes each
// match, the columnar scan counts ordinals — which is what guarantees
// the two report identical ScanStats for identical filters.
func (g *segment) walk(f Filter, st *ScanStats, visit func(raw) error) error {
	ords, constrained := g.candidates(f)
	if constrained {
		return g.walkOrdinals(ords, f, st, visit)
	}
	return g.walkRange(f, st, visit)
}

// walkRange walks the time window sequentially, seeking the start block
// through the sparse index and stopping at the first record past To.
func (g *segment) walkRange(f Filter, st *ScanStats, visit func(raw) error) error {
	bodyPat := bodyPattern(f)
	var fromN, toN int64
	block := 0
	if !f.From.IsZero() {
		fromN = f.From.UnixNano()
		// The block before the first one that starts at or after From:
		// records at exactly From may end it when the next block starts
		// at that same instant.
		block = sort.Search(len(g.idxNanos), func(i int) bool { return g.idxNanos[i] >= fromN })
		if block > 0 {
			block--
		}
	}
	if !f.To.IsZero() {
		toN = f.To.UnixNano()
	}
	if block >= len(g.idxOffsets) {
		return nil
	}
	off := g.recordsOff + int(g.idxOffsets[block])
	start := off
	defer func() { st.BytesScanned += int64(off - start) }()
	for ord := block * indexInterval; ord < g.count; ord++ {
		r, next, err := g.decodeRawAt(off)
		if err != nil {
			return err
		}
		off = next
		st.RecordsScanned++
		if toN != 0 && r.nanos >= toN {
			return nil
		}
		if fromN != 0 && r.nanos < fromN {
			continue
		}
		if !g.matchRaw(&f, r, bodyPat) {
			continue
		}
		st.Matched++
		if err := visit(r); err != nil {
			return err
		}
	}
	return nil
}

// walkOrdinals decodes exactly the index blocks containing candidate
// ordinals, sequentially within each block.
func (g *segment) walkOrdinals(ords []uint32, f Filter, st *ScanStats, visit func(raw) error) error {
	bodyPat := bodyPattern(f)
	var fromN, toN int64
	if !f.From.IsZero() {
		fromN = f.From.UnixNano()
	}
	if !f.To.IsZero() {
		toN = f.To.UnixNano()
	}
	i := 0
	for i < len(ords) {
		block := int(ords[i]) / indexInterval
		// Time-prune whole blocks: the block's records span
		// [idxNanos[block], idxNanos[block+1]] — closed, since records
		// sharing the next block's first instant may end this one.
		if toN != 0 && g.idxNanos[block] >= toN {
			return nil // blocks are time-ordered; nothing later can match
		}
		end := i
		for end < len(ords) && int(ords[end])/indexInterval == block {
			end++
		}
		if fromN != 0 && block+1 < len(g.idxNanos) && g.idxNanos[block+1] < fromN {
			i = end // the whole block predates the window
			continue
		}
		off := g.recordsOff + int(g.idxOffsets[block])
		start := off
		want := ords[i:end]
		for ord := block * indexInterval; len(want) > 0 && ord < g.count; ord++ {
			r, next, err := g.decodeRawAt(off)
			if err != nil {
				return err
			}
			off = next
			st.RecordsScanned++
			if uint32(ord) != want[0] {
				continue
			}
			want = want[1:]
			if (fromN != 0 && r.nanos < fromN) || (toN != 0 && r.nanos >= toN) || !g.matchRaw(&f, r, bodyPat) {
				continue
			}
			st.Matched++
			if err := visit(r); err != nil {
				return err
			}
		}
		st.BytesScanned += int64(off - start)
		i = end
	}
	return nil
}

// bodyPattern converts the filter's body predicate for in-place byte
// comparison (one small allocation per segment walk, amortized to ~0
// per record).
func bodyPattern(f Filter) []byte {
	if f.BodyContains == "" {
		return nil
	}
	return []byte(f.BodyContains)
}

// scan emits the segment's entries matching f, in canonical order,
// accounting its work in st and lowering *bound when emit refuses an
// entry with ErrPastBound (which also ends the walk). The caller has
// already pruned the segment against the filter's time range.
func (g *segment) scan(f Filter, st *ScanStats, bound *int64, emit func(Entry) error) error {
	return g.walk(f, st, func(r raw) error { return lowerBound(emit(g.materialize(r)), r.nanos, bound) })
}

// scanColumns folds the segment's matching records into sc without
// materializing any of them: dictionary-ordinal counts, severity-value
// counts, the Kept tally, and the timestamp column.
func (g *segment) scanColumns(f Filter, st *ScanStats, sc *SegmentColumns) error {
	return g.walk(f, st, func(r raw) error {
		sc.Matched++
		if r.flags&entryFlagKept != 0 {
			sc.Kept++
		}
		sc.SrcCounts[r.srcID]++
		sc.CatCounts[r.catID]++
		for int(r.sev) >= len(sc.SevCounts) {
			sc.SevCounts = append(sc.SevCounts, 0)
		}
		sc.SevCounts[r.sev]++
		sc.Times = append(sc.Times, r.nanos)
		return nil
	})
}
