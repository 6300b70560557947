package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
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
//	         written under the checksum so that older readers, which
//	         seek through it, still open the segment; never read here
//	         (walks binary-search the column projection's timestamps)
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

	// indexInterval is the written sparse index's stride: one index point
	// per this many records.
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
func entryBefore(a, b *Entry) bool { return a.Record.Before(&b.Record) }

// entriesSorted reports whether entries are already in canonical order.
func entriesSorted(entries []Entry) bool {
	for i := 1; i < len(entries); i++ {
		if entryBefore(&entries[i], &entries[i-1]) {
			return false
		}
	}
	return true
}

// segment is one sealed, immutable, checksum-verified block of entries.
// The encoded blob is memory-mapped (see mmap.go). Postings and
// dictionaries are decoded once at open (into heap copies); records are
// decoded once, on the first walk, into the column projection
// (projection.go) every scan then runs over, and again only to
// materialize a match into an Entry.
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

	// The column projection (projection.go), built once on first walk;
	// a build error is kept and returned to every later walk.
	colOnce sync.Once
	cols    *columns
	colErr  error
}

const entryFlagKept, entryFlagCorrupted = 1, 2

// segWriter encodes one segment a record at a time, records arriving in
// canonical order: buildSegment feeds it entries, the seal feeds it the
// tail through its sort permutation, and compaction feeds it records
// decoded from its inputs, their dictionary ids translated into the
// writer's own. Dictionaries number strings in first-seen order, so the
// bytes depend only on the record sequence, not on who fed it. The
// buffer is sized once, from the caller's estimate of the output.
type segWriter struct {
	e                enc
	n                int
	minN, maxN       int64
	recordsOff       int
	srcD, catD       dict
	progD, facD      dict
	srcOrds, catOrds [][]uint32
	sevOrds          map[logrec.Severity][]uint32
	indexOffs        []uint32
	indexNanos       []int64
}

func newSegWriter(sys logrec.System, sizeHint int) *segWriter {
	w := &segWriter{e: enc{b: make([]byte, 0, sizeHint)}, sevOrds: map[logrec.Severity][]uint32{}}
	w.e.b = append(w.e.b, segMagic...)
	w.e.byte(segVersion)
	w.e.byte(byte(sys))
	w.recordsOff = len(w.e.b)
	return w
}

// writeRecord encodes one record whose dictionary ids are already the
// writer's own; body is its text, from an entry or in place from a
// segment blob.
func writeRecord[B string | []byte](w *segWriter, r *raw, body B) {
	i := uint32(w.n)
	if w.n == 0 {
		w.minN = r.nanos
	}
	w.maxN = r.nanos
	if w.n%indexInterval == 0 {
		w.indexOffs = append(w.indexOffs, uint32(len(w.e.b)-w.recordsOff))
		w.indexNanos = append(w.indexNanos, r.nanos)
	}
	post(&w.srcOrds, r.srcID, i)
	post(&w.catOrds, r.catID, i)
	w.sevOrds[r.sev] = append(w.sevOrds[r.sev], i)

	e := &w.e
	e.uvarint(r.seq)
	e.uvarint(uint64(r.nanos - w.minN))
	e.uvarint(uint64(r.srcID))
	e.uvarint(uint64(r.catID))
	e.uvarint(uint64(r.progID))
	e.uvarint(uint64(r.facID))
	e.uvarint(uint64(r.sev))
	e.byte(r.flags)
	e.uvarint(uint64(len(body)))
	e.b = append(e.b, body...)
	w.n++
}

// post appends ordinal ord to id's posting list.
func post(lists *[][]uint32, id uint32, ord uint32) {
	for uint32(len(*lists)) <= id {
		*lists = append(*lists, nil)
	}
	(*lists)[id] = append((*lists)[id], ord)
}

// addEntry encodes en, interning its strings.
func (w *segWriter) addEntry(en *Entry) {
	r := raw{
		seq:    en.Record.Seq,
		nanos:  en.Record.Time.UnixNano(),
		srcID:  w.srcD.id(en.Record.Source),
		catID:  w.catD.id(en.Category),
		progID: w.progD.id(en.Record.Program),
		facID:  w.facD.id(en.Record.Facility),
		sev:    en.Record.Severity,
	}
	if en.Kept {
		r.flags |= entryFlagKept
	}
	if en.Record.Corrupted {
		r.flags |= entryFlagCorrupted
	}
	writeRecord(w, &r, en.Record.Body)
}

// finish appends the dictionaries, postings, sparse index and footer
// and returns the segment.
func (w *segWriter) finish() []byte {
	e := &w.e
	dictsOff := len(e.b)
	appendDict(e, w.srcD.vals)
	appendDict(e, w.catD.vals)
	appendDict(e, w.progD.vals)
	appendDict(e, w.facD.vals)

	postingsOff := len(e.b)
	for _, ords := range w.srcOrds {
		appendPostings(e, ords, w.n)
	}
	for _, ords := range w.catOrds {
		appendPostings(e, ords, w.n)
	}
	sevs := make([]logrec.Severity, 0, len(w.sevOrds))
	for s := range w.sevOrds {
		sevs = append(sevs, s)
	}
	slices.Sort(sevs)
	e.uvarint(uint64(len(sevs)))
	for _, s := range sevs {
		e.uvarint(uint64(s))
		appendPostings(e, w.sevOrds[s], w.n)
	}

	indexOff := len(e.b)
	e.uvarint(uint64(len(w.indexOffs)))
	for i := range w.indexOffs {
		e.uvarint(uint64(w.indexOffs[i]))
		e.uvarint(uint64(w.indexNanos[i] - w.minN))
	}

	e.u64(uint64(w.recordsOff))
	e.u64(uint64(dictsOff))
	e.u64(uint64(postingsOff))
	e.u64(uint64(indexOff))
	e.u64(uint64(w.n))
	e.u64(uint64(w.minN))
	e.u64(uint64(w.maxN))
	e.u32(crc32.ChecksumIEEE(e.b))
	e.b = append(e.b, segEndMagic...)
	return e.b
}

// encodeEntries encodes n entries, at(0) .. at(n-1), which must be in
// canonical order, into the segment wire form.
func encodeEntries(sys logrec.System, n int, at func(int) *Entry) []byte {
	size := 1024
	for i := 0; i < n; i++ {
		size += entrySizeHint + len(at(i).Record.Body)
	}
	w := newSegWriter(sys, size)
	for i := 0; i < n; i++ {
		w.addEntry(at(i))
	}
	return w.finish()
}

// entrySizeHint is the bytes, body aside, one entry is budgeted in its
// segment: its fixed fields (a wide timestamp delta included) and its
// share of the postings and sparse index.
const entrySizeHint = 32

// buildSegment encodes entries (which must be sorted) into the segment
// wire form.
func buildSegment(sys logrec.System, entries []Entry) []byte {
	return encodeEntries(sys, len(entries), func(i int) *Entry { return &entries[i] })
}

// parseSegment validates blob (magic, version, footer checksum) and
// decodes its metadata — dictionaries and postings; the sparse index
// region is covered by the checksum but not decoded. Records stay
// encoded. Any validation failure returns an error; a segment that
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
// order. Its one caller is Open's seal dup window, which compares whole
// entries against the wal's; compaction merges records in encoded form
// (mergeSegments) and builds none.
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

// walk drives a segment scan over its column projection: postings
// planning, time pruning and predicate matching all happen here, and
// every matching record's ordinal is handed to visit. Both read paths
// sit on top of it — the entry scan materializes each match, the
// columnar scan counts ordinals — which is what guarantees the two
// report identical ScanStats for identical filters. A walk accounts
// the records it examines, each with its encoded bytes: the whole time
// window for a range walk, the candidates inside it for a postings
// walk, in both cases only up to a refusal.
func (g *segment) walk(c *columns, f Filter, st *ScanStats, visit func(int) error) error {
	ords, constrained := g.candidates(f)
	if constrained {
		return g.walkOrdinals(c, ords, f, st, visit)
	}
	return g.walkRange(c, f, st, visit)
}

// window maps the filter's time window [From, To) to the ordinal range
// [lo, hi) of the records inside it, by binary search on the projected
// timestamps.
func (g *segment) window(c *columns, f Filter) (lo, hi int) {
	hi = g.count
	if !f.From.IsZero() {
		lo, _ = slices.BinarySearch(c.nanos, f.From.UnixNano())
	}
	if !f.To.IsZero() {
		hi, _ = slices.BinarySearch(c.nanos, f.To.UnixNano())
	}
	return min(lo, hi), hi
}

// walkRange walks the time window.
func (g *segment) walkRange(c *columns, f Filter, st *ScanStats, visit func(int) error) error {
	bodyPat := bodyPattern(f)
	lo, hi := g.window(c, f)
	for i := lo; i < hi; i++ {
		if !c.match(g.blob, &f, bodyPat, i) {
			continue
		}
		st.Matched++
		if err := visit(i); err != nil {
			c.account(st, lo, i+1)
			return err
		}
	}
	c.account(st, lo, hi)
	return nil
}

// walkOrdinals walks the candidate ordinals inside the time window: the
// candidate list clipped to [lo, hi) by two binary searches on it.
func (g *segment) walkOrdinals(c *columns, ords []uint32, f Filter, st *ScanStats, visit func(int) error) error {
	if len(ords) > 0 && int(ords[len(ords)-1]) >= g.count {
		return fmt.Errorf("store: segment %s: posting ordinal %d out of range", g.name, ords[len(ords)-1])
	}
	bodyPat := bodyPattern(f)
	lo, hi := g.window(c, f)
	a, _ := slices.BinarySearch(ords, uint32(lo))
	b, _ := slices.BinarySearch(ords, uint32(hi))
	for _, o := range ords[a:b] {
		k := int(o)
		c.account(st, k, k+1)
		if !c.match(g.blob, &f, bodyPat, k) {
			continue
		}
		st.Matched++
		if err := visit(k); err != nil {
			return err
		}
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
	c, err := g.projection()
	if err != nil {
		return err
	}
	return g.walk(c, f, st, func(i int) error {
		en, _, err := g.decodeAt(int(c.off[i]))
		if err != nil {
			return err
		}
		return lowerBound(emit(en), c.nanos[i], bound)
	})
}

// scanColumns folds the segment's matching records into sc without
// materializing any of them: dictionary-ordinal counts, severity-value
// counts, the Kept tally, and the timestamp column. A filter that is
// only a time window matches every record in the window's span: one
// counting loop, and the timestamps copied in one append.
func (g *segment) scanColumns(f Filter, st *ScanStats, sc *SegmentColumns) error {
	c, err := g.projection()
	if err != nil {
		return err
	}
	visit := func(i int) error {
		sc.add(c, i)
		sc.Times = append(sc.Times, c.nanos[i])
		return nil
	}
	if ords, constrained := g.candidates(f); constrained {
		return g.walkOrdinals(c, ords, f, st, visit)
	}
	if f.Kept != nil || f.BodyContains != "" {
		return g.walkRange(c, f, st, visit)
	}
	lo, hi := g.window(c, f)
	c.account(st, lo, hi)
	for i := lo; i < hi; i++ {
		sc.add(c, i)
	}
	sc.Times = append(sc.Times, c.nanos[lo:hi]...)
	st.Matched += hi - lo
	return nil
}
