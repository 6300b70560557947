package correlate

import (
	"encoding/json"
	"os"
	"path/filepath"

	"whatsupersay/internal/obs"
	"whatsupersay/internal/store"
	"whatsupersay/internal/view"
)

// Graph persistence: the miner writes its columns as a versioned
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
// The artifact is written once, by Close, after the caller has sealed
// the store and detached the observer, so its fingerprint matches the
// store a reopen will see. Only a clean Close leaves one that matches:
// after a crash the next open finds none, or a stale one, and rebuilds
// from a scan.

// ArtifactName is the graph artifact's filename, next to MANIFEST.
const ArtifactName = "CORRGRAPH"

// artifactVersion is bumped on any encoding change; readers ignore
// other versions (and rebuild from a scan). Version 1 also held edges.
const artifactVersion = 2

var mCorrelateSaves = obs.Default.Counter("correlate_saves_total")

// ArtifactPath returns the graph artifact path for a store directory.
func ArtifactPath(storeDir string) string {
	return filepath.Join(storeDir, ArtifactName)
}

// artifact is the on-disk form of the miner's columns.
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
	Seq  uint64  `json:"seq"`
	Cols columns `json:"cols"`
}

// save writes the artifact atomically. The fingerprint is read with the
// sequence number it describes, and the columns are written only if the
// view is settled and reflects exactly that number (lastSeq), so the
// saved (columns, fingerprint) pair is consistent; otherwise nothing is
// written and the next open scans.
func (m *Miner) save() {
	if m.artifactPath == "" {
		return
	}
	fp, seq := m.st.FingerprintSeq()
	var data []byte
	m.view.Read(func(s *columns, status view.Status) {
		if status.Settled && m.lastSeq == seq {
			// Strings, integers and a map of int64 slices always marshal.
			data, _ = json.Marshal(&artifact{
				Version:     artifactVersion,
				ConfigKey:   m.cfg.Key(),
				Fingerprint: fp,
				Seq:         seq,
				Cols:        *s,
			})
		}
	})
	if data == nil {
		return
	}
	if err := store.AtomicWriteFile(m.artifactPath, data); err != nil {
		return
	}
	mCorrelateSaves.Add(1)
}

// loadMatchingArtifact returns the persisted artifact if one is there,
// decodes, was written in this encoding for this miner's config, and
// holds a columns map the fold can write into; anything else is a cache
// miss (nil), never an error. Whether it also
// matches the open store's fingerprint is Init's producer's question,
// asked with FingerprintSeq so the match comes with its fence.
func (m *Miner) loadMatchingArtifact() *artifact {
	data, err := os.ReadFile(m.artifactPath)
	if err != nil {
		return nil
	}
	var art artifact
	if json.Unmarshal(data, &art) != nil || art.Version != artifactVersion || art.ConfigKey != m.cfg.Key() || art.Cols == nil {
		return nil
	}
	return &art
}
