package store

import (
	"os"
	"path/filepath"
	"sync/atomic"

	"whatsupersay/internal/obs"
)

// Sealed-segment bytes are memory-mapped, not read eagerly: opening a
// store touches no record data, repeated scans hit the page cache
// instead of re-allocated heap blobs, and cold segments cost address
// space rather than RSS. The mapping's lifetime is refcounted:
//
//   - the store holds one reference per segment in its inventory,
//     released when compaction supersedes the segment, retention drops
//     it, or the store closes;
//   - every scan retains the segments it snapshots before dropping the
//     store lock and releases them when it finishes, so maintenance can
//     remove a segment from the inventory (and unlink its file — POSIX
//     keeps a mapping valid after unlink) while a scan is mid-segment,
//     and the unmap happens only after the last reader is done.
//
// Platforms without mmap (see mmap_other.go) fall back to an eager
// read; the refcounting machinery is then inert but harmless.

// Mapping telemetry plus a test hook: unmapCount lets the lifetime
// tests assert "unmapped exactly when the last reference dropped"
// without racing the obs registry shared by other tests.
var (
	gMappedSegments = obs.Default.Gauge("store_mapped_segments")
	unmapCount      atomic.Int64
)

// blobRef is the refcounted owner of one segment's backing bytes.
type blobRef struct {
	data   []byte
	unmap  func([]byte) error
	mapped bool
	refs   atomic.Int32
}

// newBlobRef wraps data with an initial reference count of one (the
// inventory's reference). unmap is nil for heap-backed blobs.
func newBlobRef(data []byte, unmap func([]byte) error) *blobRef {
	r := &blobRef{data: data, unmap: unmap, mapped: unmap != nil}
	r.refs.Store(1)
	if r.mapped {
		gMappedSegments.Add(1)
	}
	return r
}

func (r *blobRef) retain() { r.refs.Add(1) }

// release drops one reference and reports whether it was the last; the
// last release unmaps. Calling release more times than retain+1 is a
// bug (the count would go negative and the mapping would have been
// freed under a holder).
func (r *blobRef) release() bool {
	if r.refs.Add(-1) != 0 {
		return false
	}
	if r.mapped {
		gMappedSegments.Add(-1)
		unmapCount.Add(1)
		r.unmap(r.data)
	}
	r.data = nil
	return true
}

// retain/release on a segment forward to its blob's refcount; segments
// parsed from heap bytes (tests) have no ref and these are no-ops. The
// last release also retires the segment's column projection.
func (g *segment) retain() {
	if g.ref != nil {
		g.ref.retain()
	}
}

func (g *segment) release() {
	if g.ref != nil && g.ref.release() {
		g.dropProjection()
	}
}

// retainAll / releaseAll bracket a scan's segment snapshot.
func retainAll(segs []*segment) {
	for _, g := range segs {
		g.retain()
	}
}

func releaseAll(segs []*segment) {
	for _, g := range segs {
		g.release()
	}
}

// openBlob maps (or, without mmap, reads) path and hands ownership to a
// fresh blobRef.
func openBlob(path string) (*blobRef, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		// The mmap syscall itself can fail on exotic filesystems even
		// where the file is readable; degrade to an eager read rather
		// than refusing to serve the segment.
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, err
		}
		return newBlobRef(data, nil), nil
	}
	return newBlobRef(data, unmap), nil
}

// openSegmentFile maps path and parses it as a segment, releasing the
// mapping if the bytes do not validate. It is the seal and compaction
// self-check path; Open inlines the same steps because it needs to
// distinguish I/O failures (fatal) from validation failures
// (quarantine).
func openSegmentFile(path string) (*segment, error) {
	ref, err := openBlob(path)
	if err != nil {
		return nil, err
	}
	g, err := parseSegment(filepath.Base(path), ref.data)
	if err != nil {
		ref.release()
		return nil, err
	}
	g.ref = ref
	return g, nil
}
