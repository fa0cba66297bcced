package service

// Durable per-key mutation stamps: the tombstone half of partition-tolerant
// replication.
//
// The receiver-side ordering gate (applyReplicated) and the snapshot-merge
// skip set both key off cluster.Node's per-key stamp table. That table used
// to be memory-only, which left one resurrection window: a node that applied
// a DELETE, crashed, and then pulled a snapshot from a peer that had missed
// the DELETE would happily re-adopt the deleted key — the tombstone died
// with the process. The stamp journal closes it: every applied stamp (local
// or replicated, PUTs and DELETEs alike) is appended to a framed log
// (internal/framelog) under Config.HandoffDir — the same durability domain
// as the hint journal — and reloaded into the node's stamp table before the service
// answers its first request. The reload also folds the highest journaled
// epoch into the node's Lamport clock, so the first post-restart local
// mutation is stamped above everything this node ever applied.
//
// The journal is append-only between compactions; once the appended tail
// outgrows the live table it is atomically rewritten from the table (one
// frame per key), so a crash mid-compaction keeps every tombstone. With
// HandoffDir unset the table stays memory-only, preserving the
// old behaviour for tests and throwaway topologies.

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"

	"epfis/internal/cluster"
	"epfis/internal/faultfs"
	"epfis/internal/framelog"
	"epfis/internal/obs"
)

// stampJournalFile is the journal's name under HandoffDir. The hint loader
// only considers *.hints files, so the two journals coexist in one dir.
const stampJournalFile = "keystamps.journal"

// stampCompactMin is the minimum appended-frame count before a compaction is
// considered (avoids rewriting a tiny file on every mutation).
const stampCompactMin = 256

// stampRecord is one journaled stamp frame.
type stampRecord struct {
	Key    string `json:"key"`
	Epoch  uint64 `json:"epoch"`
	Origin string `json:"origin"`
}

// stampJournal persists the cluster node's per-key stamp table.
type stampJournal struct {
	s *Server

	mu      sync.Mutex
	log     *framelog.Log
	appends int // frames in the journal (compaction pressure)

	errorsC *obs.Counter
}

// newStampJournal opens (creating if absent) the stamp journal under dir,
// replays it into the cluster node's stamp table, and folds the highest
// journaled epoch into the node's Lamport clock. The caller (New) has
// already created dir via newHandoff.
func newStampJournal(s *Server, dir string) (*stampJournal, error) {
	j := &stampJournal{s: s}
	j.errorsC = s.obs.reg.Counter("epfis_cluster_stamp_journal_errors_total",
		"Stamp journal writes that failed (the stamp stays tracked in memory).")
	var maxEpoch uint64
	l, err := framelog.Open(faultfs.OS(), filepath.Join(dir, stampJournalFile), func(body []byte) bool {
		var rec stampRecord
		if json.Unmarshal(body, &rec) != nil {
			return false
		}
		// RecordKeyStamp keeps the Stamp-max per key, so later frames for
		// a key fold over earlier ones in Stamp order.
		s.cluster.RecordKeyStamp(rec.Key, cluster.Stamp{Epoch: rec.Epoch, Origin: rec.Origin})
		maxEpoch = max(maxEpoch, rec.Epoch)
		j.appends++
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("service: stamp journal: %w", err)
	}
	s.cluster.ObserveEpoch(maxEpoch)
	j.log = l
	return j, nil
}

// append journals one applied stamp (fsynced). Failures demote the stamp to
// memory-only rather than failing the mutation: the apply already happened
// and the in-memory table still orders everything this process lifetime.
func (j *stampJournal) append(key string, st cluster.Stamp) {
	frame := appendJSONFrame(nil, stampRecord{Key: key, Epoch: st.Epoch, Origin: st.Origin})
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(frame); err != nil {
		j.errorsC.Inc()
		j.s.obs.log.LogAttrs(context.Background(), slog.LevelWarn, "stamp journal append failed",
			slog.String("key", key), slog.String("error", err.Error()))
		return
	}
	j.appends++
	if live := j.s.cluster.KeyStampCount(); j.appends >= stampCompactMin && j.appends > 2*live {
		j.compactLocked()
	}
}

// compactLocked atomically rewrites the journal to exactly the live stamp
// table (one frame per key). Caller holds j.mu.
func (j *stampJournal) compactLocked() {
	table := j.s.cluster.KeyStamps()
	var frames []byte
	for key, st := range table {
		frames = appendJSONFrame(frames, stampRecord{Key: key, Epoch: st.Epoch, Origin: st.Origin})
	}
	// Reset the pressure count even on failure, so a failing disk does not
	// retry the rewrite on every mutation.
	j.appends = len(table)
	if err := j.log.Rewrite(frames, ""); err != nil {
		j.errorsC.Inc() // the old journal or the whole new one stays; both reload the live table
	}
}

// close releases the journal handle.
func (j *stampJournal) close() {
	j.mu.Lock()
	j.log.Close()
	j.mu.Unlock()
}

// recordStamp records one applied mutation stamp in the cluster node's table
// and, when the stamp journal is armed, durably. Every apply site (local
// origination, replicated arrival, ingest republish) funnels through here.
func (s *Server) recordStamp(key string, st cluster.Stamp) {
	s.cluster.RecordKeyStamp(key, st)
	if s.stamps != nil {
		s.stamps.append(key, st)
	}
}
