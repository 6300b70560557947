// Package store is an embedded, append-only, time-partitioned segment
// store for tagged and filtered alerts — the persistence tier under the
// query engine (internal/query) and the `logstudy serve` / `build-store`
// subcommands. A store is a directory:
//
//	MANIFEST            store identity (format version, system)
//	seg-00000000.seg    sealed, immutable, checksum-footed segments
//	seg-00000001.seg      (sorted records + dictionaries + posting sets;
//	...                    see segment.go)
//	wal.log             the unsealed tail, as CRC-framed appends
//
// Scans run over each segment's column projection (projection.go) and
// count the records they examine; the tail is aggregated in the same
// columnar form (FoldEntries).
//
// Crash safety: segments are written to a temp file, fsynced, renamed
// into place, and the directory fsynced, so a sealed segment is either
// wholly present and checksum-valid or absent. The tail rides in the
// wal; on open, replay stops at the first torn or corrupt frame and the
// file is truncated there, so a crash (or a fault-injected tear) loses
// at most the damaged suffix of the unsealed tail — and a record is
// never served unless its enclosing checksum verified. Segments whose
// footer checksum fails are quarantined (renamed *.corrupt) and
// reported, never silently read around.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"whatsupersay/internal/logrec"
	"whatsupersay/internal/obs"
)

// Store telemetry, on the process registry so `logstudy -http` exposes
// it alongside the pipeline stages.
var (
	mScanSegments = obs.Default.Counter("store_scan_segments_total")
	mScanRecords  = obs.Default.Counter("store_scan_records_total")
	mScanBytes    = obs.Default.Counter("store_scan_bytes_total")
	mSealEntries  = obs.Default.Counter("store_seal_entries_total")
	gSegments     = obs.Default.Gauge("store_segments")
	gTailEntries  = obs.Default.Gauge("store_tail_entries")
)

const (
	manifestName = "MANIFEST"
	walName      = "wal.log"
	segPattern   = "seg-%08d.seg"
)

// DefaultFlushEvery is the default segment size, in entries.
const DefaultFlushEvery = 50000

// DefaultCompactFactor is the default merged-segment size goal,
// expressed as a multiple of FlushEvery: compaction merges runs of
// adjacent segments while the combined entry count stays at or under
// CompactFactor × FlushEvery.
const DefaultCompactFactor = 4

// Options tune a store.
type Options struct {
	// FlushEvery seals the tail into a segment once it holds this many
	// entries (default DefaultFlushEvery).
	FlushEvery int
	// SyncAppends fsyncs the wal after every Append batch. Off by
	// default: the durability unit is then the seal (always fsynced),
	// and an OS crash may lose the buffered tail — the same trade
	// syslog itself makes. Process crashes lose nothing either way.
	SyncAppends bool
	// CompactTarget is the merged-segment size goal, in entries:
	// Compact merges runs of two or more adjacent segments while their
	// combined entry count stays at or under it (default
	// DefaultCompactFactor × FlushEvery).
	CompactTarget int
	// CompactEvery, when positive, runs retention and compaction in a
	// background goroutine on this interval until Close.
	CompactEvery time.Duration
	// Retention, when positive, is the time horizon retention enforces:
	// sealed segments whose newest record is older than the newest
	// stored record minus Retention are dropped wholesale. The horizon
	// is measured in log time, not wall time, so a historical store is
	// trimmed relative to its own newest data rather than emptied.
	Retention time.Duration
}

func (o Options) flushEvery() int {
	if o.FlushEvery > 0 {
		return o.FlushEvery
	}
	return DefaultFlushEvery
}

func (o Options) compactTarget() int {
	if o.CompactTarget > 0 {
		return o.CompactTarget
	}
	return DefaultCompactFactor * o.flushEvery()
}

// manifest is the store's on-disk identity.
type manifest struct {
	Version int    `json:"version"`
	System  string `json:"system"`
}

// OpenReport says what Open found and, after damage, what it dropped —
// the operator-facing accounting the fault model requires.
type OpenReport struct {
	// Segments and TailEntries are the healthy inventory.
	Segments    int
	TailEntries int
	// CorruptSegments lists segments that failed validation and were
	// quarantined as *.corrupt (name -> reason).
	CorruptSegments map[string]string
	// TailDroppedBytes is how much of the wal was truncated as torn or
	// corrupt; TailDamage describes the first bad frame when nonzero.
	TailDroppedBytes int64
	TailDamage       string
	// TempFilesRemoved counts stale *.tmp files (a crashed seal,
	// compaction, or wal rewrite) swept on open.
	TempFilesRemoved int
	// SupersededSegments counts input segments of a committed
	// compaction that a crash left on disk; they were deleted, never
	// served (their contents live on in the compaction output).
	SupersededSegments int
	// TailDedupedEntries counts wal frames dropped because a seal's
	// segment committed but its wal rewrite did not — the entries were
	// already durable in the segment, and serving the wal copy too
	// would double-count them.
	TailDedupedEntries int
}

// Store is one open alert store. All methods are safe for concurrent
// use: appends and seals serialize behind a mutex, scans snapshot the
// immutable segment list and the tail and then run lock-free.
// Compaction and retention additionally serialize behind compactMu and
// hold mu only to commit, so queries keep flowing while a merge runs.
type Store struct {
	dir  string
	sys  logrec.System
	opts Options

	mu   sync.RWMutex
	segs []*segment
	// tail is append-only between seals: its elements are never written
	// in place (a seal sorts a copy), so a scan reads the prefix it
	// snapshotted without copying it.
	tail    []Entry
	wal     *os.File
	nextSeg int
	// pubSegs and pubTail are this store's share of the process-wide
	// size gauges (publishSizes).
	pubSegs, pubTail int

	// compactMu serializes compaction and retention passes with each
	// other (never held while waiting on mu readers; lock order is
	// always compactMu before mu).
	compactMu sync.Mutex

	// obsState carries the mutation observer (see observer.go).
	// Notifications fire after mu is released, never under it.
	obsState

	// Background maintenance loop (Options.CompactEvery).
	bgStop chan struct{}
	bgDone chan struct{}
}

// Create initializes a store directory for sys (creating it if needed)
// and opens it. Creating over an existing store of the same system
// reopens it for appending; a different system is an error.
func Create(dir string, sys logrec.System, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, err := readManifest(dir)
	switch {
	case err == nil:
		if m.System != sys.ShortName() {
			return nil, fmt.Errorf("store: %s already holds a %s store", dir, m.System)
		}
	case errors.Is(err, fs.ErrNotExist):
		if err := writeManifest(dir, manifest{Version: segVersion, System: sys.ShortName()}); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	st, _, err := Open(dir, opts)
	return st, err
}

// Open opens an existing store directory: it sweeps temp files a crash
// left staged, resolves any compaction the crash interrupted (serving
// either the superseded inputs or the merged output, never both and
// never neither), validates every sealed segment's checksum, and
// replays the wal tail — subtracting frames whose entries a
// crash-windowed seal already committed to a segment. The report says
// what was recovered and what was dropped. When Options.CompactEvery is
// positive the background maintenance loop starts before Open returns.
func Open(dir string, opts Options) (*Store, *OpenReport, error) {
	sys, err := SystemOf(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, sys: sys, opts: opts}
	rep := &OpenReport{CorruptSegments: map[string]string{}}

	// Stale temp files are always garbage: a *.tmp is only ever a
	// staging file that a completed operation would have renamed away.
	if rep.TempFilesRemoved, err = sweepTempFiles(dir); err != nil {
		return nil, nil, err
	}

	// Read and parse every segment first; quarantine decisions wait
	// until compaction recovery has said which names are superseded.
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	type parsed struct {
		path string
		g    *segment
		err  error
	}
	byName := make(map[string]parsed, len(names))
	for _, path := range names {
		name := filepath.Base(path)
		if n := segNum(name); n >= s.nextSeg {
			s.nextSeg = n + 1
		}
		// Map, don't read: opening a store touches only segment metadata.
		// An I/O failure is fatal; a validation failure releases the
		// mapping here and quarantines the file below.
		ref, err := openBlob(path)
		if err != nil {
			return nil, nil, err
		}
		g, perr := parseSegment(name, ref.data)
		if perr != nil {
			ref.release()
		} else {
			g.ref = ref
		}
		byName[name] = parsed{path: path, g: g, err: perr}
	}

	// Resolve compactions the crash interrupted. A record whose output
	// segment is present and checksum-valid committed: its inputs are
	// superseded and must never be served again (deleting them is the
	// step the crash skipped). A record whose output is missing or
	// invalid never committed: the inputs remain authoritative and the
	// record is simply dropped (its staged temp was swept above).
	cm, err := readCompactManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(cm.Pending) > 0 {
		for _, rec := range cm.Pending {
			out, ok := byName[rec.Output]
			if !ok || out.err != nil {
				continue
			}
			for _, in := range rec.Inputs {
				p, ok := byName[in]
				if !ok {
					continue
				}
				if err := os.Remove(p.path); err != nil {
					return nil, nil, err
				}
				if p.g != nil {
					p.g.release()
				}
				delete(byName, in)
				rep.SupersededSegments++
			}
		}
		if err := syncDir(dir); err != nil {
			return nil, nil, err
		}
		if err := writeCompactManifest(dir, compactManifest{}); err != nil {
			return nil, nil, err
		}
	}

	for _, path := range names {
		name := filepath.Base(path)
		p, ok := byName[name]
		if !ok {
			continue // superseded and deleted above
		}
		if p.err != nil {
			// Quarantine, never serve: keep the bytes for forensics but
			// move them out of the segment namespace.
			rep.CorruptSegments[name] = p.err.Error()
			if rerr := os.Rename(p.path, p.path+".corrupt"); rerr != nil {
				return nil, nil, rerr
			}
			continue
		}
		s.segs = append(s.segs, p.g)
	}
	sortSegments(s.segs)
	rep.Segments = len(s.segs)

	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	entries, epoch, good, damage := replayWal(raw, sys)
	if damage != nil {
		rep.TailDroppedBytes = int64(len(raw) - good)
		rep.TailDamage = damage.Error()
	}
	// The seal dup window: the wal's epoch trailing the segment
	// inventory means segments numbered >= epoch sealed after this wal
	// was written, so their entries still have frames here. Subtract
	// them (as a multiset, preserving wal order) so nothing is served
	// twice. In the steady state epoch == nextSeg and this is free.
	if epoch >= 0 && epoch < s.nextSeg && len(entries) > 0 {
		sealed := make(map[string]int)
		for _, g := range s.segs {
			if g.num < epoch {
				continue
			}
			segEntries, err := g.entries()
			if err != nil {
				return nil, nil, err
			}
			for _, en := range segEntries {
				sealed[entryKey(en)]++
			}
		}
		kept := entries[:0]
		for _, en := range entries {
			if k := entryKey(en); sealed[k] > 0 {
				sealed[k]--
				rep.TailDedupedEntries++
				continue
			}
			kept = append(kept, en)
		}
		entries = kept
	}
	s.tail = entries
	rep.TailEntries = len(entries)

	// Normalize the wal: after recovery it must be exactly a header at
	// the current epoch plus one frame per tail entry. When it already
	// is (the common clean-open case), keep the file and just reopen
	// the append handle.
	if damage != nil || epoch != s.nextSeg || rep.TailDedupedEntries > 0 {
		if err := s.rewriteWalLocked(); err != nil {
			return nil, nil, err
		}
	} else if s.wal, err = os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, nil, err
	}
	s.publishSizes()
	s.startBackground()
	return s, rep, nil
}

// segNum extracts the sequence number from a segment file name, or -1.
func segNum(name string) int {
	var n int
	if _, err := fmt.Sscanf(name, segPattern, &n); err != nil {
		return -1
	}
	return n
}

// sortSegments orders a segment list by time (then name): the order
// scans walk them in and the order compaction calls "adjacent".
func sortSegments(segs []*segment) {
	sort.SliceStable(segs, func(i, j int) bool {
		if segs[i].minNanos != segs[j].minNanos {
			return segs[i].minNanos < segs[j].minNanos
		}
		return segs[i].name < segs[j].name
	})
}

// sweepTempFiles removes stale *.tmp staging files left by a crash. A
// file that vanishes between the glob and the remove was renamed into
// place by a writer still finishing (a previous instance's last artifact
// save): already swept, and not counted.
func sweepTempFiles(dir string) (int, error) {
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, path := range tmps {
		switch err := os.Remove(path); {
		case err == nil:
			n++
		case !errors.Is(err, fs.ErrNotExist):
			return 0, err
		}
	}
	return n, nil
}

// entryKey is an entry's full-content identity, used only by the seal
// dup-window subtraction in Open.
func entryKey(en Entry) string {
	return fmt.Sprintf("%d\x00%d\x00%s\x00%s\x00%s\x00%s\x00%s\x00%d\x00%t\x00%t",
		en.Record.Seq, en.Record.Time.UnixNano(), en.Record.Source, en.Category,
		en.Record.Program, en.Record.Facility, en.Record.Body,
		en.Record.Severity, en.Record.Corrupted, en.Kept)
}

// System returns the machine whose alerts the store holds.
func (s *Store) System() logrec.System { return s.sys }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the total entry count, sealed plus tail.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.tail)
	for _, g := range s.segs {
		n += g.count
	}
	return n
}

// Append durably logs entries to the wal and adds them to the tail,
// sealing a segment whenever the tail reaches FlushEvery entries. The
// caller's slice is never written to: entries are copied before the
// store normalizes them (System pinned to the store's system, Raw
// dropped — the store does not persist wire text — and the other text
// fields copied into memory the store owns), so callers can safely
// reuse their batch buffers.
func (s *Store) Append(entries ...Entry) error {
	if len(entries) == 0 {
		return nil
	}
	batch := make([]Entry, len(entries))
	copy(batch, entries)
	var frames []byte
	for i := range batch {
		// The column projection and the entry fold both keep a severity
		// in one byte; anything wider would seal into a segment no scan
		// could read.
		if sev := batch[i].Record.Severity; sev < 0 || sev > math.MaxUint8 {
			return fmt.Errorf("store: append: severity %d out of range", sev)
		}
		batch[i].Record.System = s.sys
		batch[i].Record.Raw = ""
		ownText(&batch[i].Record)
		frames = appendWalFrame(frames, batch[i])
	}
	appendSeq, sealSeq, err := func() (uint64, uint64, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, err := s.wal.Write(frames); err != nil {
			return 0, 0, fmt.Errorf("store: wal append: %w", err)
		}
		if s.opts.SyncAppends {
			if err := s.wal.Sync(); err != nil {
				return 0, 0, err
			}
		}
		s.tail = append(s.tail, batch...)
		// Seq assignment happens here, after the effects and under mu —
		// the ordering ScanStats.Seq relies on.
		aSeq := s.nextSeqLocked()
		var sSeq uint64
		for len(s.tail) >= s.opts.flushEvery() {
			if err := s.sealLocked(s.opts.flushEvery()); err != nil {
				return aSeq, sSeq, err
			}
			sSeq = s.nextSeqLocked()
		}
		s.publishSizes()
		return aSeq, sSeq, nil
	}()
	if appendSeq != 0 {
		// Notify outside mu: observers may re-enter the store (Scan,
		// Fingerprint). The appended batch commits before any seal it
		// triggered, so the append notification goes first. Notify even
		// when a subsequent seal failed — the append itself committed.
		s.notify(Mutation{Kind: MutationAppend, Seq: appendSeq, Entries: batch})
		if sealSeq != 0 {
			s.notify(Mutation{Kind: MutationSeal, Seq: sealSeq})
		}
	}
	return err
}

// ownText re-homes a record's text fields into one allocation of its
// own. A parsed field is a substring of its whole read block, so without
// this a tail entry or a notified Mutation would pin the caller's block
// for as long as it lives.
func ownText(r *logrec.Record) {
	var b strings.Builder
	b.Grow(len(r.Source) + len(r.Facility) + len(r.Program) + len(r.Body))
	b.WriteString(r.Source)
	b.WriteString(r.Facility)
	b.WriteString(r.Program)
	b.WriteString(r.Body)
	s := b.String()
	r.Source, s = s[:len(r.Source)], s[len(r.Source):]
	r.Facility, s = s[:len(r.Facility)], s[len(r.Facility):]
	r.Program, r.Body = s[:len(r.Program)], s[len(r.Program):]
}

// Seal flushes the whole tail into a sealed segment (no-op when empty).
func (s *Store) Seal() error {
	sealSeq, err := func() (uint64, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := len(s.tail)
		if err := s.sealLocked(n); err != nil {
			return 0, err
		}
		s.publishSizes()
		if n == 0 {
			return 0, nil
		}
		return s.nextSeqLocked(), nil
	}()
	if err != nil {
		return err
	}
	if sealSeq != 0 {
		s.notify(Mutation{Kind: MutationSeal, Seq: sealSeq})
	}
	return nil
}

// sealLocked seals the first n tail entries: sort, encode, write to a
// temp file, fsync, rename into place, fsync the directory, then drop
// the sealed prefix and rewrite the wal to the remainder. The two
// durability steps are ordered segment-first: a kill between them
// leaves a wal whose epoch trails the inventory, which Open detects and
// dedupes, so a crash anywhere in the seal neither loses nor
// double-serves an acknowledged entry.
func (s *Store) sealLocked(n int) error {
	if n <= 0 || len(s.tail) == 0 {
		return nil
	}
	if n > len(s.tail) {
		n = len(s.tail)
	}
	sp := obs.Default.StartSpan("store_seal")
	defer sp.End()

	// Seal the n oldest entries by canonical order, keeping the rest. The
	// sort runs on a copy, since scans may be reading the tail itself,
	// and the rest stays in that copy.
	sorted := slices.Clone(s.tail)
	sortEntries(sorted)
	batch, rest := sorted[:n], sorted[n:]
	blob := buildSegment(s.sys, batch)

	if err := s.crashPoint(crashSealBeforeSegment); err != nil {
		return err
	}
	name := fmt.Sprintf(segPattern, s.nextSeg)
	path := filepath.Join(s.dir, name)
	if err := AtomicWriteFile(path, blob); err != nil {
		return fmt.Errorf("store: seal %s: %w", name, err)
	}
	if err := s.crashPoint(crashSealSegmentRenamed); err != nil {
		return err
	}
	// Self-check by reopening the durable file — this is also what maps
	// the new segment, releasing the heap blob built above to the GC.
	g, err := openSegmentFile(path)
	if err != nil {
		// Can't happen for bytes we just built; treat as corruption bug.
		return fmt.Errorf("store: seal %s: self-check failed: %w", name, err)
	}
	s.segs = append(s.segs, g)
	sortSegments(s.segs)
	s.nextSeg++
	mSealEntries.Add(int64(n))

	// The wal now only needs to cover the remainder.
	s.tail = rest
	return s.rewriteWalLocked()
}

// rewriteWalLocked atomically replaces the wal with a header at the
// current epoch plus frames for the current tail (typically empty right
// after a seal): the new contents are staged in wal.log.tmp, fsynced,
// renamed over wal.log, and the append handle reopened on the new
// inode. The old wal stays intact until the rename, so a kill anywhere
// in the rewrite leaves either the old wal or the new one — never the
// truncated-but-unwritten middle state the previous truncate-then-write
// protocol could die in.
func (s *Store) rewriteWalLocked() error {
	frames := appendWalHeader(nil, s.nextSeg)
	for _, en := range s.tail {
		frames = appendWalFrame(frames, en)
	}
	walPath := filepath.Join(s.dir, walName)
	tmp := walPath + ".tmp"
	if err := writeFileSync(tmp, frames); err != nil {
		return fmt.Errorf("store: wal rewrite: %w", err)
	}
	if err := s.crashPoint(crashWalTmpWritten); err != nil {
		return err
	}
	if s.wal != nil {
		s.wal.Close() // the inode is about to be replaced
		s.wal = nil
	}
	if err := os.Rename(tmp, walPath); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	if err := s.crashPoint(crashWalRenamed); err != nil {
		return err
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.wal = f
	return nil
}

// Close stops background maintenance, seals any remaining tail, closes
// the wal, releases the store's segment mappings, and retires its share
// of the size gauges. In-flight scans finish safely on their own
// references; the store itself is unusable afterwards (scans see an
// empty inventory).
func (s *Store) Close() error {
	s.stopBackground()
	err := s.Seal()
	s.mu.Lock()
	releaseAll(s.segs)
	s.segs = nil
	s.setSizes(0, 0)
	s.mu.Unlock()
	if err != nil {
		if s.wal != nil {
			s.wal.Close()
		}
		return err
	}
	return s.wal.Close()
}

// Fingerprint identifies the store's queryable content: it changes on
// every append, seal, compaction, and retention pass, and only then.
// Segment names are never reused, and within one segment inventory the
// tail can only grow, so (inventory, tail length) pins the content —
// the invalidation key the query layer's aggregate cache relies on.
func (s *Store) Fingerprint() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fingerprintLocked()
}

// FingerprintSeq returns Fingerprint together with the mutation sequence
// number of the content it identifies, read under one lock: the key a
// persisted derived state is saved and warm-started under.
func (s *Store) FingerprintSeq() (fp, seq uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fingerprintLocked(), s.mutSeq
}

func (s *Store) fingerprintLocked() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, g := range s.segs {
		io.WriteString(h, g.name)
		binary.LittleEndian.PutUint64(buf[:], uint64(g.count))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(s.tail)))
	h.Write(buf[:])
	return h.Sum64()
}

// Filter selects entries for Scan. Zero fields are unconstrained; the
// time window is [From, To).
type Filter struct {
	From, To   time.Time
	Sources    []string
	Categories []string
	Severities []logrec.Severity
	// Kept, when non-nil, selects only entries that survived (true) or
	// were removed by (false) Algorithm 3.1.
	Kept *bool
	// BodyContains, when nonempty, selects entries whose message body
	// contains it as a substring. It is the one predicate the segment
	// indexes cannot narrow: sealed segments compare it against the body
	// bytes in place (columns.match), the tail and FoldEntries against
	// the entry (match), on both read paths alike.
	BodyContains string
}

// Match reports whether en satisfies every predicate in f — the
// entry-at-a-time form of the filter that reference implementations
// select with.
func (f Filter) Match(en Entry) bool { return f.match(&en) }

// match applies every predicate to an entry (the tail and FoldEntries,
// where nothing is indexed).
func (f *Filter) match(en *Entry) bool {
	t := en.Record.Time
	if !f.From.IsZero() && t.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && !t.Before(f.To) {
		return false
	}
	if len(f.Sources) > 0 && !containsStr(f.Sources, en.Record.Source) {
		return false
	}
	if len(f.Categories) > 0 && !containsStr(f.Categories, en.Category) {
		return false
	}
	if len(f.Severities) > 0 && !containsSev(f.Severities, en.Record.Severity) {
		return false
	}
	if f.Kept != nil && *f.Kept != en.Kept {
		return false
	}
	return f.BodyContains == "" || strings.Contains(en.Record.Body, f.BodyContains)
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsSev(xs []logrec.Severity, x logrec.Severity) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// ScanStats accounts one scan's work — the observability the query
// layer reports per request. RecordsScanned counts the records the scan
// examined: in a segment, those in the time window, or only the
// window's postings candidates, each with its encoded bytes in
// BytesScanned; plus every tail entry.
type ScanStats struct {
	Segments        int   `json:"segments"`
	SegmentsScanned int   `json:"segments_scanned"`
	SegmentsPruned  int   `json:"segments_pruned"`
	TailEntries     int   `json:"tail_entries"`
	RecordsScanned  int   `json:"records_scanned"`
	BytesScanned    int64 `json:"bytes_scanned"`
	Matched         int   `json:"matched"`
	// Seq is the mutation sequence number read with the scan's snapshot:
	// the scan saw exactly the mutations with Seq <= it — the fence an
	// incremental view installs a scanned baseline under. Process-local,
	// so never on the wire.
	Seq uint64 `json:"-"`
}

// ErrPastBound is the one non-error a Scan callback may return. fn
// returning it for entry e says "no entry after e in canonical (time,
// seq) order is wanted"; the scan consumes it (Scan does not return it)
// and acts on it at time grain, against a running bound lowered to e's
// time:
//
//   - the rest of e's segment is skipped (it sorts after e);
//   - a later segment whose min time is strictly after the bound is
//     never walked, and neither is any after it (segments are walked in
//     min-time order) — they count as SegmentsPruned;
//   - no tail entry strictly after the bound is handed to fn (the tail
//     is unsorted, so every tail entry is still checked).
//
// Ties continue: a segment or tail entry at exactly the bound's time is
// still handed over, because only its seq says whether it sorts before
// e — that is the caller's to decide. A ColumnVisitor's SealedColumns
// refusal names no single entry, so it only ends its own (already
// walked) segment, or the tail.
var ErrPastBound = errors.New("store: past the caller's bound")

// Scan streams every entry matching f to fn: sealed segments first (in
// min-time order, each internally time-sorted), then the unsealed tail.
// Callers needing global canonical order sort the collected results
// (the query engine does). fn returning ErrPastBound bounds the scan
// (see there); any other error aborts it.
func (s *Store) Scan(f Filter, fn func(Entry) error) (ScanStats, error) {
	sp := obs.Default.StartSpan("store_scan")
	defer sp.End()
	return s.scan(f, mScanSegments, func(g *segment, st *ScanStats, bound *int64) error {
		return g.scan(f, st, bound, fn)
	}, func(tail []Entry, st *ScanStats, bound int64) error {
		for i := range tail {
			en := &tail[i]
			nanos := en.Record.Time.UnixNano()
			if nanos > bound || !f.match(en) {
				continue
			}
			st.Matched++
			if err := lowerBound(fn(*en), nanos, &bound); err != nil && !errors.Is(err, ErrPastBound) {
				return err
			}
		}
		return nil
	})
}

// lowerBound passes a callback's verdict on the entry at nanos through,
// first lowering *bound to nanos when the verdict is ErrPastBound.
func lowerBound(err error, nanos int64, bound *int64) error {
	if err != nil && errors.Is(err, ErrPastBound) {
		*bound = min(*bound, nanos)
	}
	return err
}

// scan is the one read skeleton under Scan and ScanColumns: snapshot
// the segment list and tail under the read lock (the tail's own prefix,
// capped so an append cannot reach it), prune segments against the
// filter's time window and the running ErrPastBound bound, hand every
// surviving segment to perSegment (which walks it, accounts its work in
// st, and may lower the bound), then the tail to perTail (which counts
// its matches; every tail entry counts as scanned), and publish the work
// counters (segments holds the caller's scanned-segments counter).
// Everything ScanStats reports is counted here, in segment.walk or in
// the two tail callbacks, which is why the two read paths report
// identical stats for identical filters against identical content.
func (s *Store) scan(f Filter, segments *obs.Counter, perSegment func(*segment, *ScanStats, *int64) error, perTail func([]Entry, *ScanStats, int64) error) (ScanStats, error) {
	var st ScanStats
	s.mu.RLock()
	segs := append([]*segment(nil), s.segs...)
	tail := s.tail[:len(s.tail):len(s.tail)]
	st.Seq = s.mutSeq
	retainAll(segs)
	s.mu.RUnlock()
	defer releaseAll(segs)

	st.Segments = len(segs)
	bound := int64(math.MaxInt64)
	for i, g := range segs {
		if g.minNanos > bound {
			// segs is in min-time order: this and every later segment
			// hold only entries strictly after the bound.
			st.SegmentsPruned += len(segs) - i
			break
		}
		if !f.From.IsZero() && g.maxNanos < f.From.UnixNano() {
			st.SegmentsPruned++
			continue
		}
		if !f.To.IsZero() && g.minNanos >= f.To.UnixNano() {
			st.SegmentsPruned++
			continue
		}
		st.SegmentsScanned++
		if err := perSegment(g, &st, &bound); err != nil && !errors.Is(err, ErrPastBound) {
			return st, err
		}
	}
	st.TailEntries = len(tail)
	st.RecordsScanned += len(tail)
	if err := perTail(tail, &st, bound); err != nil && !errors.Is(err, ErrPastBound) {
		return st, err
	}
	segments.Add(int64(st.SegmentsScanned))
	mScanRecords.Add(int64(st.RecordsScanned))
	mScanBytes.Add(st.BytesScanned)
	return st, nil
}

// SegmentInfo describes one sealed segment for the /api/segments view.
type SegmentInfo struct {
	Name       string    `json:"name"`
	Records    int       `json:"records"`
	Bytes      int       `json:"bytes"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	Sources    int       `json:"sources"`
	Categories int       `json:"categories"`
}

// Segments lists the sealed segments in seal order.
func (s *Store) Segments() []SegmentInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SegmentInfo, 0, len(s.segs))
	for _, g := range s.segs {
		out = append(out, SegmentInfo{
			Name:       g.name,
			Records:    g.count,
			Bytes:      len(g.blob),
			Start:      unixNano(g.minNanos),
			End:        unixNano(g.maxNanos),
			Sources:    len(g.sources),
			Categories: len(g.categories),
		})
	}
	return out
}

// TailLen returns the unsealed tail's entry count.
func (s *Store) TailLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tail)
}

// publishSizes moves the process-wide size gauges by this store's
// change since it last published, so that they sum over every open
// store; callers hold mu.
func (s *Store) publishSizes() { s.setSizes(len(s.segs), len(s.tail)) }

// setSizes sets this store's share of the size gauges; Close retires it
// with (0, 0). Callers hold mu.
func (s *Store) setSizes(segs, tail int) {
	gSegments.Add(float64(segs - s.pubSegs))
	gTailEntries.Add(float64(tail - s.pubTail))
	s.pubSegs, s.pubTail = segs, tail
}

func unixNano(n int64) time.Time { return time.Unix(0, n).UTC() }

// writeFileSync writes data to path (create or truncate) and fsyncs it.
// On error the partial file is removed.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// AtomicWriteFile writes data to path via a temp file, fsync, and
// rename, then fsyncs the directory so the rename itself is durable.
// Exported for sibling storage layers (the shard router's cluster
// manifest) that need the same crash-safety discipline as the store's
// own manifests.
func AtomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// SystemOf reads which machine's alerts the store directory dir holds,
// without opening it. The error wraps fs.ErrNotExist when dir holds no
// store.
func SystemOf(dir string) (logrec.System, error) {
	m, err := readManifest(dir)
	if err != nil {
		return 0, err
	}
	return logrec.ParseSystem(m.System)
}

func readManifest(dir string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("bad manifest: %w", err)
	}
	if m.Version != segVersion {
		return m, fmt.Errorf("manifest version %d not supported", m.Version)
	}
	return m, nil
}

func writeManifest(dir string, m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return AtomicWriteFile(filepath.Join(dir, manifestName), append(data, '\n'))
}
