package store

import (
	"bytes"
	"fmt"
	"math"

	"whatsupersay/internal/obs"
)

// The column projection. A sealed segment never changes, yet its
// records are varint-encoded back to back, so a scan that decoded them
// in place paid the same varints again on every query. Instead, the
// first walk of a segment decodes every record once into fixed-width,
// pointer-free columns, and every later walk — time seeks, postings
// hits, the Kept flag, body=, the columnar fold — runs over those. The
// build is lazy (never in Open, a seal or a compaction, which only
// parse metadata), happens exactly once per segment however many scans
// race to it, and costs projectionBytesPerRecord bytes per record on
// the heap. What still decodes a record is materializing a match into
// an Entry (decodeAt, at the offset the projection recorded), the bulk
// entries() read of Open's seal dup window, and compaction's merge,
// which decodes each record in place (decodeRawAt) to copy it onward.

// Projection telemetry: bytes of projection resident in live segments,
// and how many projections have been built.
var (
	gColumnBytes  = obs.Default.Gauge("store_column_bytes")
	mColumnBuilds = obs.Default.Counter("store_column_builds_total")
)

// projectionBytesPerRecord is one record's share of a projection: nanos
// 8, source and category ordinals 4+4, severity and flags 1+1, record
// and body offsets 4+4.
const projectionBytesPerRecord = 26

// beforeProjectionBuild, when set, runs at the start of every projection
// build — a test seam for parking a build while maintenance runs.
var beforeProjectionBuild func(*segment)

// columns is one segment's projection, indexed by record ordinal.
type columns struct {
	nanos    []int64
	src, cat []uint32
	sev      []uint8
	flags    []uint8
	// off holds count+1 record start offsets into the blob (the last one
	// ends the final record); a body is blob[bodyOff[i]:off[i+1]].
	off     []uint32
	bodyOff []uint32
}

// size is the projection's heap footprint in bytes: its records plus
// the offset that ends the last one.
func (c *columns) size() int64 {
	return int64(len(c.nanos))*projectionBytesPerRecord + 4
}

// projection returns the segment's column projection, building it on
// first use. A build error is sticky: a segment with any undecodable
// record fails every scan that reaches it, and none of its records is
// ever served.
func (g *segment) projection() (*columns, error) {
	g.colOnce.Do(func() {
		if beforeProjectionBuild != nil {
			beforeProjectionBuild(g)
		}
		mColumnBuilds.Inc()
		g.cols, g.colErr = g.buildProjection()
		if g.cols != nil {
			gColumnBytes.Add(float64(g.cols.size()))
		}
	})
	return g.cols, g.colErr
}

// buildProjection decodes every record once. Beyond decodeRawAt's own
// bounds and dictionary-id checks it requires what the column walks
// rely on: offsets that fit in 32 bits, records in time order (the
// walks binary-search nanos), and severities no larger than the
// largest one the severity postings name (the fold sizes its count
// array by it).
func (g *segment) buildProjection() (*columns, error) {
	if uint64(len(g.blob)) > math.MaxUint32 {
		return nil, fmt.Errorf("store: segment %s: %d bytes is too large to project", g.name, len(g.blob))
	}
	n := g.count
	c := &columns{
		nanos:   make([]int64, n),
		src:     make([]uint32, n),
		cat:     make([]uint32, n),
		sev:     make([]uint8, n),
		flags:   make([]uint8, n),
		off:     make([]uint32, n+1),
		bodyOff: make([]uint32, n),
	}
	off := g.recordsOff
	for i := 0; i < n; i++ {
		r, next, err := g.decodeRawAt(off)
		if err != nil {
			return nil, err
		}
		if r.sev < 0 || r.sev > g.maxSev || r.sev > math.MaxUint8 {
			return nil, fmt.Errorf("store: segment %s: bad severity at offset %d", g.name, off)
		}
		if i > 0 && r.nanos < c.nanos[i-1] {
			return nil, fmt.Errorf("store: segment %s: record out of time order at offset %d", g.name, off)
		}
		c.off[i] = uint32(off)
		c.nanos[i] = r.nanos
		c.src[i], c.cat[i] = r.srcID, r.catID
		c.sev[i], c.flags[i] = uint8(r.sev), r.flags
		c.bodyOff[i] = uint32(r.bodyOff)
		off = next
	}
	c.off[n] = uint32(off)
	return c, nil
}

// dropProjection retires the projection's bytes from the gauge; called
// once, on the release of the segment's last reference.
func (g *segment) dropProjection() {
	if g.cols != nil {
		gColumnBytes.Add(-float64(g.cols.size()))
	}
}

// kept reports record i's Kept flag.
func (c *columns) kept(i int) bool { return c.flags[i]&entryFlagKept != 0 }

// match applies the predicates postings do not cover — the Kept flag
// and the body substring (bodyPat, the filter's BodyContains converted
// once per walk) — to record i, comparing the body bytes in place.
func (c *columns) match(blob []byte, f *Filter, bodyPat []byte, i int) bool {
	if f.Kept != nil && *f.Kept != c.kept(i) {
		return false
	}
	return len(bodyPat) == 0 || bytes.Contains(blob[c.bodyOff[i]:c.off[i+1]], bodyPat)
}

// account adds a walk over records [start, end) to st.
func (c *columns) account(st *ScanStats, start, end int) {
	st.RecordsScanned += end - start
	st.BytesScanned += int64(c.off[end]) - int64(c.off[start])
}

// add folds record i into sc.
func (sc *SegmentColumns) add(c *columns, i int) {
	sc.Matched++
	if c.kept(i) {
		sc.Kept++
	}
	sc.SrcCounts[c.src[i]]++
	sc.CatCounts[c.cat[i]]++
	sc.SevCounts[c.sev[i]]++
}
