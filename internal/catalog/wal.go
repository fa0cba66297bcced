package catalog

// Write-ahead-logged persistence with group commit.
//
// The legacy persistence path (persist.go) serializes the WHOLE catalog and
// walks the full temp+fsync+rename+dirsync sequence on every mutation — crash
// safe, but each Put pays two fsyncs and a rewrite of every entry. The WAL
// mode trades that for an append-only log:
//
//	catalog.json          checkpoint: trailered snapshot + "lsn=N" field
//	catalog.json.wal      CRC32-C framed mutation log
//
// Each mutation appends one frame and the commit is a single fsync of the
// log — and that fsync is GROUP commit: while one writer's fsync is in
// flight, later writers enqueue their frames and park; whichever of them
// wakes first becomes the next leader and flushes the whole accumulated
// batch under one fsync. Under concurrency, N mutations cost ~1 fsync plus N
// tiny appends instead of N full-snapshot rewrites (the bench-ingest suite
// pins the ratio at >= 10x).
//
// Frame format. Each record is one internal/framelog frame, whose package
// doc gives the length + CRC32-C envelope and the torn-tail rules. The frame
// body is (integers little-endian):
//
//	[type u8][lsn u64][payload]
//
// Types: header (log identity, written at creation/rotation), put (one
// entry's JSON), delete (the key), replace (a full catalog JSON), ingest (an
// opaque ingest-journal record). LSNs increase by one per logged mutation and
// never repeat within a log+checkpoint lineage.
//
// Durability protocol. Two snapshot pointers exist: Store.applied (newest
// BUILT state, possibly unfsynced) and Store.snap (published to readers,
// always durable). A mutation builds its snapshot against applied, assigns
// the next LSN, enqueues a ticket, and releases the store lock before any
// I/O — that's what lets commits overlap. The group leader appends the
// batch's frames, fsyncs once, and only then publishes the batch's last
// snapshot. On an append/fsync failure the leader fails every queued ticket
// (their snapshots stack on doomed state), rolls applied back to the
// published snapshot, and rewinds the LSN; the log itself truncates back to
// its durable length before the next append.
// Readers therefore never observe a generation that could be lost to a
// crash, and the crash-recovery fuzz (wal_test.go) holds that any torn tail
// recovers to exactly the last fsynced commit.
//
// Checkpointing. Every CheckpointEvery commits (and on Save/Checkpoint), the
// leader writes the current published snapshot through the legacy atomic-
// rename path with an "lsn=N" trailer field, then rotates the log: a fresh
// WAL containing only a header frame replaces the old one through
// framelog.Log.Rewrite. Recovery loads the checkpoint (falling back to
// .prev as always) and replays only frames with lsn > checkpoint lsn, so
// every crash window — mid-append, mid-checkpoint, mid-rotation — lands on a
// consistent committed state.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"epfis/internal/faultfs"
	"epfis/internal/framelog"
	"epfis/internal/stats"
)

// ErrClosed reports a mutation on a closed WAL-backed store.
var ErrClosed = errors.New("catalog: store is closed")

// WAL frame types.
const (
	walFrameHeader  byte = 0
	walFramePut     byte = 1
	walFrameDelete  byte = 2
	walFrameReplace byte = 3
	// walFrameIngest is an opaque ingest-journal record riding in the same
	// log: it never touches the catalog entry set, it just has to be durable
	// before the service acknowledges the batch it describes. Recovery hands
	// the payloads back through Store.IngestRecords; checkpoints carry the
	// still-live records into the rotated log (Store.SetIngestSource).
	walFrameIngest byte = 4
)

const walHeaderMagic = "epfis-wal v1"

// DefaultCheckpointEvery is the commit count between automatic checkpoints
// when WALOptions.CheckpointEvery is zero.
const DefaultCheckpointEvery = 256

// WALOptions configures OpenWAL.
type WALOptions struct {
	// Dir is the directory for the log file (named <catalog base>.wal).
	// Empty means alongside the catalog file.
	Dir string
	// CheckpointEvery is the number of committed mutations between automatic
	// checkpoints. Zero means DefaultCheckpointEvery; negative disables
	// automatic checkpoints (Save/Checkpoint still work).
	CheckpointEvery int
}

// WALPath reports the log file for a catalog path under the given options.
func (o WALOptions) WALPath(catalogPath string) string {
	dir := o.Dir
	if dir == "" {
		dir = filepath.Dir(catalogPath)
	}
	return filepath.Join(dir, filepath.Base(catalogPath)+".wal")
}

// wal is the log file state. lsn is guarded by Store.mu; durableLSN, buf,
// and the log handle are touched only by the current group-commit leader
// (leadership hand-off through walQueue orders the accesses).
type wal struct {
	path string
	log  *framelog.Log

	lsn        uint64 // last assigned LSN (Store.mu)
	durableLSN uint64 // last fsynced LSN (leader only)
	buf        []byte // reused batch write buffer (leader only)

	ingest [][]byte // ingest-journal payloads found during recovery
}

// walTicket is one enqueued mutation awaiting durability.
type walTicket struct {
	frame []byte
	lsn   uint64
	snap  *Snapshot
	done  bool
	err   error
}

// walQueue is the group-commit rendezvous.
type walQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*walTicket
	syncing bool // a leader is writing/fsyncing (or holding for rotation)
}

// OpenWAL opens (or creates) a WAL-backed store for the catalog at path:
// append-only group-committed mutations with periodic checkpoints, instead
// of a full atomic rewrite per mutation. Recovery loads the checkpoint —
// with the same .prev fallback as Open — and replays committed log frames
// past it; a torn tail (crash mid-append) is truncated at the last complete
// frame.
func OpenWAL(path string, opts WALOptions) (*Store, error) {
	return OpenWALFS(path, opts, faultfs.OS())
}

// OpenWALFS is OpenWAL over an explicit filesystem — the injection point for
// fault-injected chaos tests and the EPFIS_FAULTS knob.
func OpenWALFS(path string, opts WALOptions, fsys faultfs.FS) (*Store, error) {
	st := NewStore()
	st.path = path
	st.fs = fsys
	st.checkpointEvery = opts.CheckpointEvery
	if st.checkpointEvery == 0 {
		st.checkpointEvery = DefaultCheckpointEvery
	}
	st.walQ.cond = sync.NewCond(&st.walQ.mu)

	c, snapLSN, recovered, err := loadWithRecoveryLSN(fsys, path)
	if err != nil {
		return nil, err
	}
	st.recovered = recovered
	entries := map[string]*stats.IndexStats{}
	gen := uint64(0)
	if c != nil {
		for _, k := range c.Keys() {
			if e, err := c.Get(splitKey(k)); err == nil {
				entries[k] = e
			}
		}
		gen = 1
	}

	w := &wal{path: opts.WALPath(path)}
	r := walReplay{snapLSN: snapLSN, maxLSN: snapLSN, entries: entries}
	if w.log, err = framelog.Open(fsys, w.path, r.accept); err != nil {
		return nil, fmt.Errorf("catalog: open wal: %w", err)
	}
	if !r.header {
		// Missing, empty, or unrecognizable log: Open cut it to nothing, so
		// start it afresh with the identity frame.
		if err := w.log.Append(appendRecord(nil, walFrameHeader, r.maxLSN, []byte(walHeaderMagic))); err != nil {
			w.log.Close()
			return nil, fmt.Errorf("catalog: write wal header: %w", err)
		}
	}
	gen += uint64(r.replayed)
	w.lsn, w.durableLSN, w.ingest = r.maxLSN, r.maxLSN, r.ingest

	snap := newSnapshot(gen, entries, nil)
	st.snap.Store(snap)
	st.applied = snap
	st.wal = w
	return st, nil
}

// WALPath reports the store's log file, or "" outside WAL mode.
func (st *Store) WALPath() string {
	if st.wal == nil {
		return ""
	}
	return st.wal.path
}

// walReplay is the log's frame filter, shared by recovery and Reload: the
// log must open with its identity frame, committed mutation frames with
// lsn > snapLSN fold into entries, and ingest frames are collected.
type walReplay struct {
	snapLSN  uint64
	entries  map[string]*stats.IndexStats
	header   bool     // the identity frame opened the log
	replayed int      // mutation frames applied
	maxLSN   uint64   // highest LSN covered (snapLSN when none is newer)
	ingest   [][]byte // ingest-journal payloads, oldest first
}

// accept takes one frame body in log order. It returns false at the first
// frame that cannot belong to a committed log: everything before it is the
// log, and recovery cuts the file there.
func (r *walReplay) accept(body []byte) bool {
	if len(body) < 9 {
		return false
	}
	ftype, lsn, payload := body[0], binary.LittleEndian.Uint64(body[1:]), body[9:]
	switch {
	case !r.header:
		// The log must open with its identity frame; anything else means
		// the file is not (or no longer) a v1 WAL — replay nothing.
		r.header = ftype == walFrameHeader && string(payload) == walHeaderMagic
		return r.header
	case ftype == walFrameHeader:
		return false // a header mid-log is corruption
	case ftype == walFrameIngest:
		// Ingest records are collected regardless of the checkpoint LSN:
		// a checkpoint covers catalog state, not accumulator state, and
		// rotation re-stamps carried records with the checkpoint LSN.
		r.ingest = append(r.ingest, append([]byte(nil), payload...))
	case lsn > r.snapLSN:
		if !applyWALFrame(r.entries, ftype, payload) {
			return false // undecodable committed frame: stop at the last good one
		}
		r.replayed++
	}
	r.maxLSN = max(r.maxLSN, lsn)
	return true
}

// applyWALFrame folds one mutation frame into entries, reporting false when
// the payload does not decode to a valid mutation.
func applyWALFrame(entries map[string]*stats.IndexStats, ftype byte, payload []byte) bool {
	switch ftype {
	case walFramePut:
		var e stats.IndexStats
		if err := json.Unmarshal(payload, &e); err != nil || e.Validate() != nil {
			return false
		}
		entries[e.Key()] = &e
		return true
	case walFrameDelete:
		delete(entries, string(payload))
		return true
	case walFrameReplace:
		c, err := stats.Load(bytes.NewReader(payload))
		if err != nil {
			return false
		}
		clear(entries)
		for _, k := range c.Keys() {
			if e, err := c.Get(splitKey(k)); err == nil {
				entries[k] = e
			}
		}
		return true
	default:
		return false
	}
}

// appendRecord appends one WAL record to dst as a single frame. The payload
// is copied once, straight into its frame.
func appendRecord(dst []byte, ftype byte, lsn uint64, payload []byte) []byte {
	at := len(dst)
	dst = append(framelog.Reserve(dst), ftype)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, payload...)
	framelog.Seal(dst[at:])
	return dst
}

// appliedLocked is the snapshot the next mutation builds on. Callers hold
// st.mu.
func (st *Store) appliedLocked() *Snapshot {
	if st.applied != nil {
		return st.applied
	}
	return st.snap.Load()
}

// walPut commits one entry install through the log.
func (st *Store) walPut(cp *stats.IndexStats) (uint64, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return 0, fmt.Errorf("catalog: encode entry: %w", err)
	}
	return st.walCommit(walFramePut, payload, func(base *Snapshot) (map[string]*stats.IndexStats, bool) {
		next := cloneEntries(base.entries)
		next[cp.Key()] = cp
		return next, true
	})
}

// walDelete commits one entry removal through the log. A missing key is a
// no-op that neither logs nor bumps the generation.
func (st *Store) walDelete(key string) (bool, uint64, error) {
	gen, err := st.walCommit(walFrameDelete, []byte(key), func(base *Snapshot) (map[string]*stats.IndexStats, bool) {
		if _, ok := base.entries[key]; !ok {
			return nil, false
		}
		next := cloneEntries(base.entries)
		delete(next, key)
		return next, true
	})
	if err != nil {
		return false, 0, err
	}
	if gen == 0 { // aborted: key absent
		return false, st.Generation(), nil
	}
	return true, gen, nil
}

// walReplaceAll commits a full entry-set swap through the log.
func (st *Store) walReplaceAll(next map[string]*stats.IndexStats) (uint64, error) {
	payload, err := encodeEntriesJSON(next)
	if err != nil {
		return 0, err
	}
	return st.walCommit(walFrameReplace, payload, func(*Snapshot) (map[string]*stats.IndexStats, bool) {
		return next, true
	})
}

// walReload re-reads checkpoint + committed log from disk and republishes the
// result as a replace mutation.
func (st *Store) walReload() (uint64, error) {
	c, snapLSN, _, err := loadWithRecoveryLSN(st.fs, st.path)
	if err != nil {
		return 0, fmt.Errorf("catalog: reload: %w", err)
	}
	entries := map[string]*stats.IndexStats{}
	if c != nil {
		for _, k := range c.Keys() {
			if e, err := c.Get(splitKey(k)); err == nil {
				entries[k] = e
			}
		}
	}
	data, err := st.fs.ReadFile(st.wal.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("catalog: reload: %w", err)
	}
	// Ingest frames are not catalog mutations: Reload rebuilds entry state
	// only, so the collected payloads are dropped.
	r := walReplay{snapLSN: snapLSN, maxLSN: snapLSN, entries: entries}
	framelog.Scan(data, r.accept)
	return st.walReplaceAll(entries)
}

// encodeEntriesJSON renders an entry set as the canonical catalog JSON.
func encodeEntriesJSON(entries map[string]*stats.IndexStats) ([]byte, error) {
	c := stats.NewCatalog()
	for _, k := range sortedKeys(entries) {
		if err := c.Put(entries[k]); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// walCommit is the mutation front door: build the next snapshot against
// applied state, enqueue the frame, and ride (or drive) a group commit.
// prepare returns ok=false to abort without logging (e.g. deleting a missing
// key); walCommit then returns (0, nil).
func (st *Store) walCommit(ftype byte, payload []byte, prepare func(*Snapshot) (map[string]*stats.IndexStats, bool)) (uint64, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return 0, ErrClosed
	}
	base := st.appliedLocked()
	entries, ok := prepare(base)
	if !ok {
		st.mu.Unlock()
		return 0, nil
	}
	next := newSnapshot(base.gen+1, entries, base)
	st.wal.lsn++
	t := &walTicket{frame: appendRecord(nil, ftype, st.wal.lsn, payload), lsn: st.wal.lsn, snap: next}
	st.applied = next
	st.walQ.mu.Lock()
	st.walQ.queue = append(st.walQ.queue, t)
	st.walQ.mu.Unlock()
	st.mu.Unlock()

	if err := st.groupCommit(t); err != nil {
		return 0, err
	}
	return next.gen, nil
}

// AppendIngest journals one opaque ingest record through the same
// group-committed log as catalog mutations: when it returns nil the record
// is fsynced and will be handed back by IngestRecords after a crash. It
// publishes no snapshot and bumps no generation — durability is the whole
// contract. Only valid on WAL-backed stores.
func (st *Store) AppendIngest(payload []byte) error {
	if st.wal == nil {
		return errors.New("catalog: not a WAL-backed store")
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	st.wal.lsn++
	t := &walTicket{frame: appendRecord(nil, walFrameIngest, st.wal.lsn, payload), lsn: st.wal.lsn}
	st.walQ.mu.Lock()
	st.walQ.queue = append(st.walQ.queue, t)
	st.walQ.mu.Unlock()
	st.mu.Unlock()
	return st.groupCommit(t)
}

// IngestRecords returns the ingest-journal payloads recovered when the
// store was opened, oldest first. The service replays them through its
// accumulators at startup; records acknowledged before a crash are never
// lost. Nil outside WAL mode or when the log held none.
func (st *Store) IngestRecords() [][]byte {
	if st.wal == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([][]byte, len(st.wal.ingest))
	copy(out, st.wal.ingest)
	return out
}

// SetIngestSource registers the callback checkpoints use to learn which
// ingest records are still live (not yet folded into a published refit):
// rotation writes them into the fresh log so a crash after a checkpoint
// still replays them. A nil source (the default) carries nothing.
func (st *Store) SetIngestSource(fn func() [][]byte) {
	st.mu.Lock()
	st.ingestSrc = fn
	st.mu.Unlock()
}

// groupCommit waits for the ticket to become durable, becoming the flush
// leader if nobody else is. The leader drains the whole queue, writes every
// frame, fsyncs ONCE, publishes the batch's final snapshot (success) or
// rolls back (failure), then wakes everyone — including the writers that
// enqueued during its fsync, the first of which leads the next batch.
func (st *Store) groupCommit(t *walTicket) error {
	q := &st.walQ
	q.mu.Lock()
	for !t.done && q.syncing {
		q.cond.Wait()
	}
	if t.done {
		err := t.err
		q.mu.Unlock()
		return err
	}
	q.syncing = true
	batch := q.queue
	q.queue = nil
	q.mu.Unlock()

	err := st.wal.writeBatch(batch)
	var failed []*walTicket
	if err != nil {
		failed = st.rollback(batch, err)
	} else {
		st.publish(batch)
		st.maybeCheckpoint()
	}

	q.mu.Lock()
	for _, bt := range batch {
		bt.done = true
	}
	for _, bt := range failed {
		bt.done = true
	}
	q.syncing = false
	q.cond.Broadcast()
	q.mu.Unlock()
	return t.err
}

// writeBatch appends every ticket's frame and fsyncs once. Leader only.
func (w *wal) writeBatch(batch []*walTicket) error {
	w.buf = w.buf[:0]
	for _, t := range batch {
		w.buf = append(w.buf, t.frame...)
	}
	if err := w.log.Append(w.buf); err != nil {
		return fmt.Errorf("catalog: wal append: %w", err)
	}
	w.durableLSN = batch[len(batch)-1].lsn
	return nil
}

// publish advances the reader-visible snapshot to the batch's final (now
// durable) state. Ingest-journal tickets carry no snapshot, so the batch's
// last snapshot-bearing ticket wins (a batch may be all-ingest).
func (st *Store) publish(batch []*walTicket) {
	var last *Snapshot
	for i := len(batch) - 1; i >= 0; i-- {
		if batch[i].snap != nil {
			last = batch[i].snap
			break
		}
	}
	st.mu.Lock()
	if last != nil {
		if cur := st.snap.Load(); last.gen > cur.gen {
			st.snap.Store(last)
		}
	}
	st.sinceCheckpoint += len(batch)
	st.mu.Unlock()
}

// rollback fails the batch AND everything enqueued since it was taken (those
// tickets' snapshots build on state that never became durable), rolls
// applied back to the published snapshot, and rewinds the LSN. Returns the
// extra tickets so the leader can mark them done.
func (st *Store) rollback(batch []*walTicket, cause error) []*walTicket {
	st.mu.Lock()
	q := &st.walQ
	q.mu.Lock()
	extra := q.queue
	q.queue = nil
	q.mu.Unlock()
	st.applied = st.snap.Load()
	st.wal.lsn = st.wal.durableLSN
	st.mu.Unlock()
	for _, t := range batch {
		t.err = cause
	}
	for _, t := range extra {
		t.err = fmt.Errorf("catalog: commit depends on a failed group commit: %w", cause)
	}
	return extra
}

// maybeCheckpoint runs an automatic checkpoint when enough commits have
// accumulated. Leader only (st.mu NOT held).
func (st *Store) maybeCheckpoint() {
	st.mu.Lock()
	due := st.checkpointEvery > 0 && st.sinceCheckpoint >= st.checkpointEvery
	st.mu.Unlock()
	if due {
		// Best effort: the commits themselves are durable in the log either
		// way; a failed checkpoint just leaves a longer log to replay.
		_ = st.checkpointAsLeader()
	}
}

// Checkpoint writes the current published snapshot as the checkpoint file
// and rotates the log. It runs as (or serialized with) a group-commit
// leader, so it never races an append.
func (st *Store) Checkpoint() error {
	if st.wal == nil {
		return errors.New("catalog: not a WAL-backed store")
	}
	q := &st.walQ
	q.mu.Lock()
	for q.syncing {
		q.cond.Wait()
	}
	q.syncing = true
	q.mu.Unlock()

	err := st.checkpointAsLeader()

	q.mu.Lock()
	q.syncing = false
	q.cond.Broadcast()
	q.mu.Unlock()
	return err
}

// checkpointAsLeader does the checkpoint + rotation. Caller holds
// leadership (walQ.syncing).
func (st *Store) checkpointAsLeader() error {
	w := st.wal
	snap := st.snap.Load()
	if err := writeAtomicLSN(st.fs, st.path, snap, w.durableLSN, true); err != nil {
		return err
	}
	st.mu.Lock()
	src := st.ingestSrc
	st.mu.Unlock()
	var carry [][]byte
	if src != nil {
		carry = src()
	}
	if err := w.rotate(carry); err != nil {
		return err
	}
	st.mu.Lock()
	st.sinceCheckpoint = 0
	st.mu.Unlock()
	return nil
}

// rotate atomically replaces the log with a fresh one containing a header
// frame plus any still-live ingest records carried forward (stamped with
// the checkpoint LSN — they ride below the replay threshold on purpose,
// since recovery collects ingest frames unconditionally). Leader only.
func (w *wal) rotate(carry [][]byte) error {
	w.buf = appendRecord(w.buf[:0], walFrameHeader, w.durableLSN, []byte(walHeaderMagic))
	for _, p := range carry {
		w.buf = appendRecord(w.buf, walFrameIngest, w.durableLSN, p)
	}
	if err := w.log.Rewrite(w.buf); err != nil {
		return fmt.Errorf("catalog: rotate wal: %w", err)
	}
	return nil
}

// Close flushes leadership, closes the log handle, and fails subsequent
// mutations with ErrClosed. Reads keep serving the last published snapshot.
// Close is a no-op on non-WAL stores.
func (st *Store) Close() error {
	if st.wal == nil {
		return nil
	}
	q := &st.walQ
	q.mu.Lock()
	for q.syncing {
		q.cond.Wait()
	}
	q.syncing = true
	q.mu.Unlock()

	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
	err := st.wal.log.Close()

	q.mu.Lock()
	q.syncing = false
	q.cond.Broadcast()
	q.mu.Unlock()
	return err
}

// WALStats is a point-in-time view of the log state, for observability and
// tests.
type WALStats struct {
	LSN             uint64 // last assigned LSN
	DurableLSN      uint64 // last fsynced LSN
	SinceCheckpoint int    // commits since the last checkpoint
}

// WALStatsNow reports the current log state; zero outside WAL mode.
func (st *Store) WALStatsNow() WALStats {
	if st.wal == nil {
		return WALStats{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return WALStats{
		LSN:             st.wal.lsn,
		DurableLSN:      st.wal.durableLSN,
		SinceCheckpoint: st.sinceCheckpoint,
	}
}
