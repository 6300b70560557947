package correlate

import (
	"encoding/json"
	"os"
	"path/filepath"

	"whatsupersay/internal/obs"
	"whatsupersay/internal/store"
	"whatsupersay/internal/view"
)

// Graph persistence: the miner writes its integer state as a versioned
// artifact next to the store manifest, with the same atomic-rename
// discipline every other store file uses (store.AtomicWriteFile: tmp →
// fsync → rename → dir fsync). The artifact is keyed by the config and
// the store fingerprint it describes; on reopen, a fingerprint matching
// the store's (read with its sequence number, the install's fence) lets
// the miner install the saved state without rescanning (a warm start).
// A stale or mismatched artifact is ignored and overwritten — it is a
// cache of derived state, never a source of truth, so no recovery
// protocol is needed beyond "rebuild from a scan".
//
// Saves run on a dedicated goroutine with a coalescing wake channel:
// observers run synchronously on the append path and must not block on
// disk, so the view's hook only pokes the saver. Close writes a final
// artifact so the fingerprint matches the sealed-on-close store.

// ArtifactName is the graph artifact's filename, next to MANIFEST.
const ArtifactName = "CORRGRAPH"

// artifactVersion is bumped on any encoding change; readers ignore
// other versions (and rebuild from a scan).
const artifactVersion = 1

var mCorrelateSaves = obs.Default.Counter("correlate_saves_total")

// ArtifactPath returns the graph artifact path for a store directory.
func ArtifactPath(storeDir string) string {
	return filepath.Join(storeDir, ArtifactName)
}

// artifactEdge is one persisted edge accumulator.
type artifactEdge struct {
	Source string `json:"source"`
	Target string `json:"target"`
	Pairs  int64  `json:"pairs"`
	LagSum int64  `json:"lag_sum"`
}

// artifact is the on-disk form of the miner's integer state.
type artifact struct {
	Version int `json:"version"`
	// ConfigKey pins the mining configuration; a miner with a different
	// key ignores the artifact.
	ConfigKey string `json:"config_key"`
	// Fingerprint is the store fingerprint the state describes; a warm
	// start requires it to match the open store's.
	Fingerprint uint64 `json:"fingerprint"`
	// Seq is the mutation sequence at save time — informational only
	// (sequence numbers are process-local and reset on reopen).
	Seq   uint64             `json:"seq"`
	Cols  map[string][]int64 `json:"cols"`
	Edges []artifactEdge     `json:"edges"`
}

// saveLoop is the saver worker: coalesced wakes, one write per wake.
func (m *Miner) saveLoop() {
	defer close(m.saveDone)
	if m.artifactPath == "" {
		return
	}
	for {
		select {
		case <-m.stop:
			return
		case <-m.saveCh:
		}
		m.save()
	}
}

// wakeSave pokes the saver (no-op without an artifact path).
func (m *Miner) wakeSave() {
	if m.artifactPath == "" {
		return
	}
	select {
	case m.saveCh <- struct{}{}:
	default:
	}
}

// save snapshots the state and writes the artifact atomically. The
// fingerprint is read with the sequence number it describes, and the
// state is written only if it reflects exactly that number (lastSeq), so
// the saved (state, fingerprint) pair is consistent. One attempt: an
// unsettled view, or a mutation committed but not yet delivered, is a
// hook still to run, and that hook pokes the saver again.
func (m *Miner) save() {
	if m.artifactPath == "" {
		return
	}
	fp, seq := m.st.FingerprintSeq()
	var st *graphState
	m.view.Read(func(s *graphState, status view.Status) {
		if status.Settled && m.lastSeq == seq {
			c := s.clone()
			st = &c
		}
	})
	if st == nil {
		return
	}
	art := &artifact{
		Version:     artifactVersion,
		ConfigKey:   m.cfg.Key(),
		Fingerprint: fp,
		Seq:         seq,
		Cols:        st.cols,
		Edges:       make([]artifactEdge, 0, len(st.edges)),
	}
	for k, acc := range st.edges {
		art.Edges = append(art.Edges, artifactEdge{Source: k.a, Target: k.b, Pairs: acc.Pairs, LagSum: acc.LagSum})
	}
	data, err := json.Marshal(art)
	if err != nil {
		return
	}
	if err := store.AtomicWriteFile(m.artifactPath, data); err != nil {
		return
	}
	mCorrelateSaves.Add(1)
}

// loadMatchingArtifact returns the persisted artifact if one is there,
// decodes, and was written in this encoding for this miner's config;
// anything else is a cache miss (nil), never an error. Whether it also
// matches the open store's fingerprint is Init's producer's question,
// asked with FingerprintSeq so the match comes with its fence.
func (m *Miner) loadMatchingArtifact() *artifact {
	data, err := os.ReadFile(m.artifactPath)
	if err != nil {
		return nil
	}
	var art artifact
	if json.Unmarshal(data, &art) != nil || art.Version != artifactVersion || art.ConfigKey != m.cfg.Key() {
		return nil
	}
	return &art
}

// state is the graph state the artifact holds.
func (a *artifact) state() graphState {
	st := graphState{cols: a.Cols, edges: make(map[edgeKey]edgeAccum, len(a.Edges))}
	for _, e := range a.Edges {
		st.edges[edgeKey{e.Source, e.Target}] = edgeAccum{Pairs: e.Pairs, LagSum: e.LagSum}
	}
	return st
}
