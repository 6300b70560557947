package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"whatsupersay/internal/obs"
)

// Compaction and retention: the maintenance side of the store. Every
// FlushEvery entries the ingest path seals another small segment, so a
// long-lived store accumulates segments without bound and every query
// pays a per-segment scan. Compaction merges runs of adjacent (in time
// order) small segments into one large sorted segment; retention drops
// whole segments whose newest record has aged past a horizon measured
// in log time. Both reuse the seal path's durability protocol —
// temp-file, fsync, rename, directory fsync — plus one extra artifact,
// the COMPACT manifest, so Open can tell "replaced by compaction" from
// "corrupt".
//
// Commit protocol for one merge (inputs in1..inK -> output out):
//
//	1. stage   write out's bytes to out.tmp, fsync (no rename yet)
//	2. intend  append {output: out, inputs: [in1..inK]} to COMPACT
//	           (atomic write) — the point of no return
//	3. commit  rename out.tmp -> out, fsync dir
//	4. gc      unlink in1..inK, fsync dir
//	5. clear   rewrite COMPACT empty; rewrite the wal (nextSeg advanced,
//	           so the epoch header must advance with it)
//
// A kill anywhere leaves a recoverable state: before step 3 the output
// name is absent (or only a *.tmp, swept on open), so the manifest
// record is dead weight and the inputs remain authoritative; at or
// after step 3 the output is present and checksum-valid, so the inputs
// are superseded and Open deletes any that survive. Either way exactly
// one copy of every entry is served.

// compactManifestName is the superseded-segment manifest: a JSON file
// listing compactions that have been declared (step 2) but whose
// cleanup (steps 3-5) may not have finished.
const compactManifestName = "COMPACT"

// compactRecord declares one compaction: Output supersedes Inputs the
// moment Output exists and parses.
type compactRecord struct {
	Output string   `json:"output"`
	Inputs []string `json:"inputs"`
}

// compactManifest is the on-disk COMPACT content.
type compactManifest struct {
	Pending []compactRecord `json:"pending,omitempty"`
}

func readCompactManifest(dir string) (compactManifest, error) {
	var m compactManifest
	data, err := os.ReadFile(filepath.Join(dir, compactManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("store: bad compact manifest: %w", err)
	}
	return m, nil
}

func writeCompactManifest(dir string, m compactManifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return AtomicWriteFile(filepath.Join(dir, compactManifestName), append(data, '\n'))
}

// Maintenance telemetry.
var (
	mCompactions      = obs.Default.Counter("store_compactions_total")
	mCompactSegsIn    = obs.Default.Counter("store_compact_segments_in_total")
	mCompactEntries   = obs.Default.Counter("store_compact_entries_total")
	mRetentionSegs    = obs.Default.Counter("store_retention_segments_total")
	mRetentionEntries = obs.Default.Counter("store_retention_entries_total")
)

// CompactStats accounts one Compact call.
type CompactStats struct {
	// Compactions is how many merges ran (each replaces a run of input
	// segments with one output segment).
	Compactions int `json:"compactions"`
	// SegmentsIn is the total input segments consumed across all merges.
	SegmentsIn int `json:"segments_in"`
	// EntriesMerged is the total entries rewritten.
	EntriesMerged int `json:"entries_merged"`
}

// RetentionStats accounts one ApplyRetention call.
type RetentionStats struct {
	SegmentsDropped int `json:"segments_dropped"`
	EntriesDropped  int `json:"entries_dropped"`
}

// Compact merges runs of adjacent small segments until no run of two or
// more adjacent segments fits within the compaction target
// (Options.CompactTarget entries). Queries keep flowing throughout:
// the merge reads immutable sealed segments under a read lock, and only
// the commit takes the write lock. Safe for concurrent use with every
// other store method; concurrent Compact/ApplyRetention calls serialize
// behind compactMu.
func (s *Store) Compact() (CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	sp := obs.Default.StartSpan("store_compact")
	defer sp.End()

	var st CompactStats
	for {
		merged, n, seq, err := s.compactOnce()
		if err != nil {
			return st, err
		}
		if !merged {
			return st, nil
		}
		st.Compactions++
		st.SegmentsIn += n.segments
		st.EntriesMerged += n.entries
		mCompactions.Add(1)
		mCompactSegsIn.Add(int64(n.segments))
		mCompactEntries.Add(int64(n.entries))
		// compactOnce released mu before returning; safe to notify. The
		// entry set is unchanged, but the fingerprint moved and derived
		// state keyed by layout must refresh.
		s.notify(Mutation{Kind: MutationCompact, Seq: seq})
	}
}

type mergeSize struct{ segments, entries int }

// pickCompactRun chooses the longest run of two or more adjacent
// segments whose combined entry count stays at or under target,
// scanning oldest-first so cold data coalesces before hot data. It
// returns the run's [start, end) indexes into segs, or ok=false.
func pickCompactRun(segs []*segment, target int) (start, end int, ok bool) {
	bestLen := 1
	for i := 0; i < len(segs); i++ {
		total := 0
		j := i
		for ; j < len(segs); j++ {
			if total+segs[j].count > target {
				break
			}
			total += segs[j].count
		}
		if j-i > bestLen {
			start, end, bestLen = i, j, j-i
		}
	}
	return start, end, bestLen > 1
}

// compactOnce performs one merge if a candidate run exists.
//
// The caller holds compactMu, which is what makes the optimistic
// read-merge-commit below sound: appends and seals can run concurrently
// (they only grow the inventory; sortSegments keeps newly sealed
// segments after the ones merged here, since seals are newer in both
// time and name), but nothing else can remove or replace the run's
// segments between the snapshot and the commit.
func (s *Store) compactOnce() (bool, mergeSize, uint64, error) {
	// Snapshot the run under a read lock; segments are immutable so the
	// merge itself needs no lock at all.
	s.mu.RLock()
	start, end, ok := pickCompactRun(s.segs, s.opts.compactTarget())
	var run []*segment
	if ok {
		run = append([]*segment(nil), s.segs[start:end]...)
		retainAll(run)
	}
	s.mu.RUnlock()
	if !ok {
		return false, mergeSize{}, 0, nil
	}
	// The snapshot reference keeps the run's mappings alive for the
	// merge read below even if something else could drop them; the
	// store's own references are released separately at commit.
	defer releaseAll(run)

	var merged []Entry
	inputs := make([]string, 0, len(run))
	for _, g := range run {
		ents, err := g.entries()
		if err != nil {
			return false, mergeSize{}, 0, fmt.Errorf("store: compact read %s: %w", g.name, err)
		}
		merged = append(merged, ents...)
		inputs = append(inputs, g.name)
	}
	sortEntries(merged)
	blob := buildSegment(s.sys, merged)

	s.mu.Lock()
	defer s.mu.Unlock()

	name := fmt.Sprintf(segPattern, s.nextSeg)
	path := filepath.Join(s.dir, name)
	tmp := path + ".tmp"

	// 1. stage
	if err := writeFileSync(tmp, blob); err != nil {
		return false, mergeSize{}, 0, fmt.Errorf("store: compact stage %s: %w", name, err)
	}
	if err := s.crashPoint(crashCompactTmpWritten); err != nil {
		return false, mergeSize{}, 0, err
	}
	// 2. intend
	cm, err := readCompactManifest(s.dir)
	if err != nil {
		return false, mergeSize{}, 0, err
	}
	cm.Pending = append(cm.Pending, compactRecord{Output: name, Inputs: inputs})
	if err := writeCompactManifest(s.dir, cm); err != nil {
		return false, mergeSize{}, 0, err
	}
	if err := s.crashPoint(crashCompactManifestWritten); err != nil {
		return false, mergeSize{}, 0, err
	}
	// 3. commit
	if err := os.Rename(tmp, path); err != nil {
		return false, mergeSize{}, 0, err
	}
	if err := syncDir(s.dir); err != nil {
		return false, mergeSize{}, 0, err
	}
	if err := s.crashPoint(crashCompactOutputRenamed); err != nil {
		return false, mergeSize{}, 0, err
	}
	// 4. gc
	for _, in := range inputs {
		if err := os.Remove(filepath.Join(s.dir, in)); err != nil {
			return false, mergeSize{}, 0, err
		}
	}
	if err := syncDir(s.dir); err != nil {
		return false, mergeSize{}, 0, err
	}
	if err := s.crashPoint(crashCompactInputsRemoved); err != nil {
		return false, mergeSize{}, 0, err
	}
	// 5. clear
	if err := writeCompactManifest(s.dir, compactManifest{}); err != nil {
		return false, mergeSize{}, 0, err
	}

	g, err := openSegmentFile(path)
	if err != nil {
		return false, mergeSize{}, 0, fmt.Errorf("store: compact %s: self-check failed: %w", name, err)
	}
	// Replace the run in place. Concurrent seals may have appended new
	// segments since the snapshot; the run's indexes are still valid
	// because sortSegments keeps order stable and newer segments sort
	// after (the run's segments themselves are unchanged — compactMu
	// guarantees that). Locate the run by identity to be robust anyway.
	keep := s.segs[:0]
	inRun := make(map[*segment]bool, len(run))
	for _, g := range run {
		inRun[g] = true
	}
	for _, old := range s.segs {
		if !inRun[old] {
			keep = append(keep, old)
		}
	}
	s.segs = append(keep, g)
	sortSegments(s.segs)
	// Drop the inventory's references to the superseded inputs. Their
	// files are already unlinked; the mappings stay valid until every
	// in-flight scan that snapshotted them releases its own reference.
	releaseAll(run)
	s.nextSeg++
	// nextSeg advanced, so the wal's epoch header is stale; refresh it
	// (also re-covers the tail, unchanged by compaction).
	if err := s.rewriteWalLocked(); err != nil {
		return false, mergeSize{}, 0, err
	}
	s.publishSizes()
	return true, mergeSize{segments: len(run), entries: len(merged)}, s.nextSeqLocked(), nil
}

// ApplyRetention drops every sealed segment whose newest record is
// older than horizon. The tail is never trimmed (it is still in
// flight). Whole-segment granularity keeps the operation O(dropped): no
// rewrite, just unlink — a segment straddling the horizon survives
// until all of it has aged out.
func (s *Store) ApplyRetention(horizon time.Time) (RetentionStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	st, seq, err := s.applyRetentionLocked(horizon)
	if err == nil && st.SegmentsDropped > 0 {
		// mu is released; notify (still under compactMu, see notify).
		// Retention genuinely shrinks the entry set — incremental views
		// must rebuild from a scan.
		s.notify(Mutation{Kind: MutationRetention, Seq: seq})
	}
	return st, err
}

func (s *Store) applyRetentionLocked(horizon time.Time) (RetentionStats, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var st RetentionStats
	h := horizon.UnixNano()
	keep := s.segs[:0]
	var dropped []*segment
	for _, g := range s.segs {
		if g.maxNanos >= h {
			keep = append(keep, g)
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, g.name)); err != nil {
			return st, 0, err
		}
		dropped = append(dropped, g)
		st.SegmentsDropped++
		st.EntriesDropped += g.count
	}
	if st.SegmentsDropped == 0 {
		return st, 0, nil
	}
	s.segs = keep
	// As with compaction gc: the files are unlinked, the mappings live
	// until the last in-flight scan holding a snapshot reference ends.
	releaseAll(dropped)
	if err := syncDir(s.dir); err != nil {
		return st, 0, err
	}
	mRetentionSegs.Add(int64(st.SegmentsDropped))
	mRetentionEntries.Add(int64(st.EntriesDropped))
	s.publishSizes()
	return st, s.nextSeqLocked(), nil
}

// retentionHorizon computes the data-relative horizon: the newest
// stored record's time minus Options.Retention. Log time, not wall
// time — the paper's data is from 2004-2005, and a wall-clock horizon
// would empty every historical store on open. Returns ok=false when
// retention is off or the store is empty.
func (s *Store) retentionHorizon() (time.Time, bool) {
	if s.opts.Retention <= 0 {
		return time.Time{}, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var newest int64
	for _, g := range s.segs {
		if g.maxNanos > newest {
			newest = g.maxNanos
		}
	}
	for _, en := range s.tail {
		if n := en.Record.Time.UnixNano(); n > newest {
			newest = n
		}
	}
	if newest == 0 {
		return time.Time{}, false
	}
	return unixNano(newest).Add(-s.opts.Retention), true
}

// Maintain runs one retention pass (when configured) and one full
// compaction pass — the unit of work the background loop and the
// `logstudy compact` subcommand share.
func (s *Store) Maintain() (CompactStats, RetentionStats, error) {
	var rst RetentionStats
	if horizon, ok := s.retentionHorizon(); ok {
		var err error
		if rst, err = s.ApplyRetention(horizon); err != nil {
			return CompactStats{}, rst, err
		}
	}
	cst, err := s.Compact()
	return cst, rst, err
}

// startBackground launches the maintenance loop when CompactEvery asks
// for one; called once from Open.
func (s *Store) startBackground() {
	if s.opts.CompactEvery <= 0 {
		return
	}
	s.bgStop = make(chan struct{})
	s.bgDone = make(chan struct{})
	go func() {
		defer close(s.bgDone)
		t := time.NewTicker(s.opts.CompactEvery)
		defer t.Stop()
		for {
			select {
			case <-s.bgStop:
				return
			case <-t.C:
				// Best-effort: a maintenance failure (e.g. disk full)
				// must not kill the serving path; the next tick retries.
				s.Maintain()
			}
		}
	}()
}

// stopBackground stops the maintenance loop and waits for it to exit;
// safe to call when none is running.
func (s *Store) stopBackground() {
	if s.bgStop == nil {
		return
	}
	close(s.bgStop)
	<-s.bgDone
	s.bgStop, s.bgDone = nil, nil
}
