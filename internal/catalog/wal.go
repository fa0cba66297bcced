package catalog

// Write-ahead-logged persistence with group commit.
//
// A file-backed store keeps two files, each with its retained previous
// generation:
//
//	catalog.json          checkpoint: trailered snapshot + "lsn=N" field
//	catalog.json.wal      CRC32-C framed mutation log
//
// Frame format. Each record is one internal/framelog frame, whose package
// doc gives the length + CRC32-C envelope and the torn-tail rules. The frame
// body is (integers little-endian):
//
//	[type u8][lsn u64][payload]
//
// Types: header (log identity and the LSN the log starts from, written at
// creation/rotation), put (one entry's JSON), delete (the key), replace (a
// full catalog JSON), ingest (an opaque ingest-journal record), three
// stamped types whose payload opens with a stamp header
//
//	[epoch u64][origin len uvarint][origin][key len uvarint][key]
//
// stamped put (the header, then the entry's JSON), stamped delete (the
// header alone) and stamp (the header alone: a stamp record that changes no
// entry), and batch: several put, delete or stamped records of one commit,
// each [type u8][len uvarint][payload], so a commit that touches many keys
// (a merge, a reload, a stamp import) lands whole or not at all. LSNs
// increase by one per logged commit and never repeat within a
// log+checkpoint lineage.
//
// Stamps. A stamp rides in the frame of the write it names. The checkpoint
// file stays a plain stats catalog: rotation carries the stamp table into
// the fresh log as stamp records, and replay folds the stamp of every
// stamped frame regardless of LSN, keeping each key's latest.
//
// Durability protocol. Two snapshot pointers exist: Store.applied (newest
// BUILT state, possibly unfsynced) and Store.snap (published to readers,
// always durable). A mutation builds its snapshot against applied, assigns
// the next LSN, enqueues a ticket, and releases the store lock before any
// I/O — that's what lets commits overlap. Whichever parked writer wakes
// first leads: it appends the whole queued batch, fsyncs once, and only
// then publishes the batch's last snapshot, so N concurrent mutations cost
// about one fsync (bench-ingest pins at least 10x over a rewrite per
// commit). On an append/fsync failure the leader fails every queued ticket
// (their snapshots stack on doomed state), rolls applied back to the
// published snapshot, and rewinds the LSN; the log itself truncates back
// to its durable length before the next append. Readers therefore never
// observe a generation that could be lost to a crash, and the
// crash-recovery fuzz (wal_test.go) holds that any torn tail recovers to
// exactly the last fsynced commit.
//
// Checkpoints, recovery and out-of-band refreshes are described in the
// package comment.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"epfis/internal/faultfs"
	"epfis/internal/framelog"
	"epfis/internal/stats"
)

// ErrClosed reports a mutation on a closed file-backed store.
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
	// Stamped frames: see the file comment.
	walFramePutStamped    byte = 5
	walFrameDeleteStamped byte = 6
	walFrameStamp         byte = 7
	walFrameBatch         byte = 8
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
	// automatic checkpoints (Checkpoint still works).
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

// wal is the log file state. lsn is guarded by Store.mu; buf and the log
// handle are touched only by the current group-commit leader (leadership
// hand-off through walQueue orders the accesses); durableLSN is written by
// the leader under Store.mu, so the leader reads it freely and anyone else
// under Store.mu.
type wal struct {
	path string
	log  *framelog.Log

	lsn        uint64 // last assigned LSN (Store.mu)
	durableLSN uint64 // last fsynced LSN (leader writes under Store.mu)
	buf        []byte // reused batch write buffer (leader only)

	ingest [][]byte // ingest-journal payloads found during recovery
}

// walTicket is one enqueued mutation awaiting durability.
type walTicket struct {
	frame []byte
	lsn   uint64
	snap  *Snapshot
	adopt bool // checkpoint before acknowledging (Reload of an out-of-band file)
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

// OpenWAL opens (or creates) the file-backed store for the catalog at
// path: append-only group-committed mutations with periodic checkpoints.
// Recovery loads the checkpoint — falling back to the retained previous one
// and its log when the checkpoint does not verify — and replays committed
// log frames past it; a torn tail (crash mid-append) is truncated at the
// last complete frame. A catalog file without an lsn field is adopted
// whole; see the package comment.
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
	w := &wal{path: opts.WALPath(path)}

	c, lsn, hasLSN, err := loadCheckpoint(fsys, path)
	// A file written outside the store is adopted whole. The state it
	// replaces is still replayed, from the retained checkpoint and both
	// logs, to name the keys the adoption changes.
	adopt := err == nil && !hasLSN
	base := c
	if err != nil || adopt {
		// Corrupt, truncated, or missing after a crashed checkpoint: serve
		// the retained previous checkpoint when it verifies.
		prev, prevLSN, prevHasLSN, prevErr := loadCheckpoint(fsys, PrevPath(path))
		switch {
		case prevErr == nil:
			base, lsn, hasLSN, st.recovered = prev, prevLSN, prevHasLSN, !adopt
		case adopt:
			base, lsn = nil, 0
		case !errors.Is(err, os.ErrNotExist) || !errors.Is(prevErr, os.ErrNotExist):
			return nil, err
		default:
			hasLSN = true // no catalog yet: the log must start at lsn 0
		}
	}
	r := walReplay{maxLSN: lsn, entries: entriesOf(base), stamps: map[string]Stamp{}, loose: !hasLSN || adopt}
	if st.recovered || adopt && base != nil {
		// The log rotated away with that checkpoint holds the frames
		// between it and the current log's start.
		data, err := fsys.ReadFile(PrevPath(w.path))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("catalog: read retained wal: %w", err)
		}
		if err := r.replay(data); err != nil {
			return nil, err
		}
		r.ingest = nil // rotation carried the live ones into the current log
	}
	r.header = false
	if w.log, err = framelog.Open(fsys, w.path, r.accept); err != nil {
		return nil, fmt.Errorf("catalog: open wal: %w", err)
	}
	if r.err != nil {
		w.log.Close()
		return nil, r.err
	}
	if !r.header {
		// Missing, empty, or unrecognizable log: Open cut it to nothing, so
		// start it afresh with the identity frame.
		if err := w.log.Append(appendRecord(nil, walFrameHeader, r.maxLSN, []byte(walHeaderMagic))); err != nil {
			w.log.Close()
			return nil, fmt.Errorf("catalog: write wal header: %w", err)
		}
	}
	gen, entries := uint64(r.replayed), r.entries
	if base != nil {
		gen++
	}
	if adopt {
		// The file replaces every mutation logged before it; the logs gave
		// their end, their ingest records and their stamps.
		gen, entries = 1, entriesOf(c)
		st.refreshed = changedKeys(r.entries, entries)
	}
	snap := newSnapshot(gen, entries, r.stamps)
	st.snap.Store(snap)
	st.applied = snap
	st.wal = w
	w.lsn, w.durableLSN, w.ingest = r.maxLSN, r.maxLSN, r.ingest

	if adopt || st.recovered || c == nil {
		// An adoption must land, or a later open would adopt the file again
		// over every commit acknowledged since. Otherwise best effort, like
		// every checkpoint: the log holds the state either way.
		if err := st.openCheckpoint(adopt); err != nil {
			if adopt {
				w.log.Close()
				return nil, err
			}
			st.sinceCheckpoint = st.checkpointEvery
		}
	}
	return st, nil
}

// openCheckpoint makes the catalog file this store's checkpoint, so Reload
// and later opens can tell it from an out-of-band refresh. An adopted file
// is first logged as a replace frame, so recovery from the retained file
// replays it; a file that did not verify is first removed, so the
// checkpoint does not retain it over the verified one.
func (st *Store) openCheckpoint(adopt bool) error {
	w, snap := st.wal, st.snap.Load()
	if adopt {
		p, err := snap.encode()
		if err == nil {
			err = w.log.Append(appendRecord(nil, walFrameReplace, w.lsn+1, p))
		}
		if err != nil {
			return fmt.Errorf("catalog: log adopted catalog: %w", err)
		}
		w.lsn++
		w.durableLSN = w.lsn
	}
	if st.recovered {
		if err := st.fs.Remove(st.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("catalog: remove unverifiable checkpoint: %w", err)
		}
	}
	return writeCheckpoint(st.fs, st.path, snap, w.durableLSN)
}

// WALPath reports the store's log file, or "" for an in-memory store.
func (st *Store) WALPath() string {
	if st.wal == nil {
		return ""
	}
	return st.wal.path
}

// walReplay folds logs into a checkpoint's entries: each log must open with
// its identity frame, starting no later than the LSN reached so far (unless
// loose); committed mutation frames past that LSN fold into entries, every
// stamped frame folds into stamps, and ingest frames are collected.
type walReplay struct {
	entries  map[string]*stats.IndexStats
	stamps   map[string]Stamp
	maxLSN   uint64   // LSN reached: the checkpoint's, then each frame's
	loose    bool     // the state has no LSN: any log may continue it
	header   bool     // the identity frame opened the current log
	replayed int      // mutation frames applied
	ingest   [][]byte // ingest-journal payloads, oldest first
	err      error    // the log does not continue the state before it
}

// replay folds one log's bytes, reporting a log that starts past the LSN
// reached so far.
func (r *walReplay) replay(data []byte) error {
	r.header = false
	framelog.Scan(data, r.accept)
	return r.err
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
	case r.err != nil:
		return true // the log is refused whole; leave its bytes as they are
	case !r.header:
		// The log must open with its identity frame; anything else means
		// the file is not (or no longer) a v1 WAL — replay nothing.
		r.header = ftype == walFrameHeader && string(payload) == walHeaderMagic
		switch {
		case !r.header:
			return false
		case lsn <= r.maxLSN:
		case r.loose:
			r.maxLSN = lsn
		default:
			r.err = fmt.Errorf("%w: log starts at lsn %d, past lsn %d of the state before it", ErrCorrupt, lsn, r.maxLSN)
		}
		return true
	case ftype == walFrameHeader:
		return false // a header mid-log is corruption
	case ftype == walFrameIngest:
		// Ingest records are collected regardless of LSN: a checkpoint
		// covers catalog state, not accumulator state, and rotation
		// re-stamps carried records with the checkpoint LSN.
		r.ingest = append(r.ingest, append([]byte(nil), payload...))
	case ftype == walFrameBatch:
		// Applied to copies, so a batch that does not decode changes nothing.
		entries, stamps := maps.Clone(r.entries), maps.Clone(r.stamps)
		if !eachRecord(payload, func(t byte, p []byte) bool { return applyRecord(entries, stamps, t, p, lsn > r.maxLSN) }) {
			return false
		}
		r.entries, r.stamps = entries, stamps
		if lsn > r.maxLSN {
			r.replayed++
		}
	case ftype >= walFramePutStamped && ftype <= walFrameStamp, lsn > r.maxLSN:
		if !applyRecord(r.entries, r.stamps, ftype, payload, lsn > r.maxLSN) {
			return false // undecodable committed frame: stop at the last good one
		}
		if ftype != walFrameStamp && lsn > r.maxLSN {
			r.replayed++
		}
	}
	r.maxLSN = max(r.maxLSN, lsn)
	return true
}

// applyRecord folds one mutation record into entries and stamps, reporting
// false when it does not decode. A stamped record's stamp folds regardless
// of LSN (the checkpoint holds none); an entry change applies only when
// fresh, that is, past the state replayed so far.
func applyRecord(entries map[string]*stats.IndexStats, stamps map[string]Stamp, ftype byte, payload []byte, fresh bool) bool {
	if ftype < walFramePutStamped || ftype > walFrameStamp {
		return !fresh || applyWALFrame(entries, ftype, payload)
	}
	s, key, body, ok := cutStampHeader(payload)
	if !ok || ftype != walFrameStamp && fresh && !applyStamped(entries, ftype, key, body) {
		return false
	}
	stamps[key] = later(stamps[key], s)
	return true
}

// eachRecord walks a batch payload's records, reporting false when one does
// not decode, is not a put, delete or stamped record, or fn refuses it.
func eachRecord(p []byte, fn func(ftype byte, payload []byte) bool) bool {
	for len(p) > 0 {
		t := p[0]
		n, w := binary.Uvarint(p[1:])
		if w <= 0 || n > uint64(len(p)-1-w) {
			return false
		}
		rec := p[1+w : 1+w+int(n)]
		p = p[1+w+int(n):]
		if t != walFramePut && t != walFrameDelete && (t < walFramePutStamped || t > walFrameStamp) || !fn(t, rec) {
			return false
		}
	}
	return true
}

// appendBatchRecord appends one record to a batch payload.
func appendBatchRecord(dst []byte, ftype byte, payload []byte) []byte {
	dst = append(dst, ftype)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
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
		for k, e := range entriesOf(c) {
			entries[k] = e
		}
		return true
	default:
		return false
	}
}

// applyStamped folds a stamped put or delete's entry change into entries,
// reporting false when its body does not decode to a mutation of key.
func applyStamped(entries map[string]*stats.IndexStats, ftype byte, key string, body []byte) bool {
	if ftype == walFrameDeleteStamped {
		if len(body) != 0 {
			return false
		}
		delete(entries, key)
		return true
	}
	var e stats.IndexStats
	if err := json.Unmarshal(body, &e); err != nil || e.Validate() != nil || e.Key() != key {
		return false
	}
	entries[key] = &e
	return true
}

// appendStampHeader appends the stamp header a stamped frame's payload
// opens with (see the file comment).
func appendStampHeader(dst []byte, s Stamp, key string) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, s.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(s.Origin)))
	dst = append(dst, s.Origin...)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

// cutStampHeader splits a stamped payload into its stamp, its key and the
// rest, reporting false when the header does not decode or names no key.
func cutStampHeader(p []byte) (s Stamp, key string, rest []byte, ok bool) {
	if len(p) < 8 {
		return Stamp{}, "", nil, false
	}
	s.Epoch = binary.LittleEndian.Uint64(p)
	if s.Origin, rest, ok = cutString(p[8:]); ok {
		key, rest, ok = cutString(rest)
	}
	return s, key, rest, ok && key != ""
}

// cutString splits a uvarint-length-prefixed string off the head of p.
func cutString(p []byte) (string, []byte, bool) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return "", nil, false
	}
	return string(p[w : w+int(n)]), p[w+int(n):], true
}

// appendStampRecords appends the stamp table as one batch frame at lsn:
// a stamp record per key, in key order. An empty table appends nothing.
func appendStampRecords(dst []byte, lsn uint64, stamps map[string]Stamp) []byte {
	if len(stamps) == 0 {
		return dst
	}
	keys := make([]string, 0, len(stamps))
	for k := range stamps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for _, k := range keys {
		b = appendBatchRecord(b, walFrameStamp, appendStampHeader(nil, stamps[k], k))
	}
	return appendRecord(dst, walFrameBatch, lsn, b)
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

// Reload re-reads the catalog file and publishes its contents as a new
// generation, so statistics refreshed by an out-of-process LRU-Fit run swap
// in without downtime; in-flight readers keep their old snapshot. A file
// without an lsn field is adopted whole (see the package comment). A file
// with one is a checkpoint the store already holds, with every commit past
// it: Reload republishes the store's own state. A file that cannot be read
// or verified is rejected, and the snapshot and generation stay as they
// were.
func (st *Store) Reload() (uint64, error) { return st.ReloadStamped(Stamp{}) }

// ReloadStamped is Reload for a cluster node, where a refresh is a write:
// each key the adopted file changes or adds is stamped s, and each key it
// drops gets s as its tombstone, in the refresh's own commit, so the refresh
// reaches every replica and a dropped key is deleted cluster-wide. A key
// whose held stamp orders after s keeps its entry: the write that raced the
// refresh and ordered after it wins. The zero s stamps nothing.
func (st *Store) ReloadStamped(s Stamp) (uint64, error) {
	if st.path == "" {
		return 0, ErrNoPath
	}
	var c *stats.Catalog
	var hasLSN bool
	// Read as the leader: a checkpoint moves the file aside before it
	// renames the new one into place.
	err := st.lead(func() (err error) {
		c, _, hasLSN, err = loadCheckpoint(st.fs, st.path)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("catalog: reload: %w", err)
	}
	if hasLSN {
		return st.commit(replaceRecord, false, func(base *Snapshot) (*Snapshot, bool) {
			return base.derive(nil), true
		})
	}
	file := entriesOf(c)
	// The log records each key whose entry or stamp the refresh changes,
	// and each key it keeps against the file, so recovery from the
	// adopted file (retained as .prev) replays to the same state.
	var logged []string
	rec := func(lsn uint64, next *Snapshot) ([]byte, error) {
		if len(logged) == 0 {
			return replaceRecord(lsn, next)
		}
		return appendKeyRecords(nil, lsn, next, logged)
	}
	return st.commit(rec, true, func(base *Snapshot) (*Snapshot, bool) {
		logged = logged[:0]
		changed := map[string]*record{}
		for _, k := range changedKeys(base.entries(), file) {
			logged = append(logged, k)
			held := base.recs[k]
			_, hs := held.held()
			if s != (Stamp{}) && !hs.Less(s) {
				continue // kept against the file
			}
			changed[k] = newRecord(file[k], later(hs, s), held)
		}
		return base.derive(changed), true
	})
}

// changedKeys lists, sorted, the keys whose entry differs between a and b,
// present in one and absent from the other included.
func changedKeys(a, b map[string]*stats.IndexStats) []string {
	var out []string
	for k, ea := range a {
		eb, ok := b[k]
		if !ok || !sameEntry(ea, eb) {
			out = append(out, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// sameEntry reports whether two entries encode to the same JSON.
func sameEntry(a, b *stats.IndexStats) bool {
	if a == b {
		return true
	}
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// StampRefreshed stamps, once and in one commit, the keys OpenWAL's
// adoption of an out-of-band file changed, added or removed, each with the
// stamp next returns (a tombstone for a removed key), so an adoption at
// open is a refresh like Reload's. next is called only when there are keys
// to stamp. A cluster node calls it before it serves or gossips. A crash
// between the adoption and this commit leaves those keys under their older
// stamps, each converging to whichever version orders last; a later Reload
// of the same file changes nothing, so re-adopt by writing it again.
func (st *Store) StampRefreshed(next func() (Stamp, error)) (uint64, error) {
	st.mu.Lock()
	keys := st.refreshed
	st.refreshed = nil
	st.mu.Unlock()
	if len(keys) == 0 {
		return st.Generation(), nil
	}
	s, err := next()
	if err != nil {
		return 0, err
	}
	stamps := make(map[string]Stamp, len(keys))
	for _, k := range keys {
		stamps[k] = s
	}
	return st.RecordStamps(stamps)
}

// encodeCatalog renders a catalog as the canonical catalog JSON.
func encodeCatalog(c *stats.Catalog) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encode renders the snapshot's entries as the canonical catalog JSON.
func (s *Snapshot) encode() ([]byte, error) {
	c, err := s.Catalog()
	if err != nil {
		return nil, err
	}
	return encodeCatalog(c)
}

// logRecord renders one commit's log bytes at the LSN the commit is
// assigned, for the snapshot it publishes. It runs under the store lock.
type logRecord func(lsn uint64, next *Snapshot) ([]byte, error)

// frame records a commit as one frame whose body was encoded beforehand,
// off the lock.
func frame(ftype byte, body []byte) logRecord {
	return func(lsn uint64, _ *Snapshot) ([]byte, error) { return appendRecord(nil, ftype, lsn, body), nil }
}

// replaceRecord records a commit as a replace frame of its whole entry set,
// rendered under the lock: for commits whose entries depend on their base.
func replaceRecord(lsn uint64, next *Snapshot) ([]byte, error) {
	p, err := next.encode()
	if err != nil {
		return nil, err
	}
	return appendRecord(nil, walFrameReplace, lsn, p), nil
}

// commit is the mutation front door: build the next snapshot against the
// newest one with prepare and publish it — directly on an in-memory store;
// on a file-backed one by enqueueing rec's frames and riding (or driving) a
// group commit. adopt checkpoints the commit before it is acknowledged (see
// maybeCheckpoint). prepare returns ok=false to abort without a commit
// (e.g. deleting a missing key); commit then returns (0, nil).
func (st *Store) commit(rec logRecord, adopt bool, prepare func(base *Snapshot) (*Snapshot, bool)) (uint64, error) {
	if st.wal == nil {
		st.mu.Lock()
		defer st.mu.Unlock()
		next, ok := prepare(st.snap.Load())
		if !ok {
			return 0, nil
		}
		st.snap.Store(next)
		return next.gen, nil
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return 0, ErrClosed
	}
	next, ok := prepare(st.applied)
	if !ok {
		st.mu.Unlock()
		return 0, nil
	}
	frames, err := rec(st.wal.lsn+1, next)
	if err != nil {
		st.mu.Unlock()
		return 0, fmt.Errorf("catalog: encode commit: %w", err)
	}
	st.wal.lsn++
	t := &walTicket{frame: frames, lsn: st.wal.lsn, snap: next, adopt: adopt}
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
// contract. An in-memory store returns ErrNoPath.
func (st *Store) AppendIngest(payload []byte) error {
	if st.wal == nil {
		return ErrNoPath
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
// lost. Nil for an in-memory store or when the log held none.
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
	var adopt *walTicket
	if err != nil {
		failed = st.rollback(batch, err)
	} else {
		st.publish(batch)
		for _, bt := range batch {
			if bt.adopt {
				adopt = bt
			}
		}
	}
	// A due checkpoint also runs after a failed batch: its rotation is what
	// gives a log moved aside by a failed rotation its file back.
	st.maybeCheckpoint(adopt)

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
	return nil
}

// publish advances the durable LSN and the reader-visible snapshot to the
// batch's final (now durable) state. Ingest-journal tickets carry no
// snapshot, so the batch's last snapshot-bearing ticket wins (a batch may
// be all-ingest).
func (st *Store) publish(batch []*walTicket) {
	var last *Snapshot
	for i := len(batch) - 1; i >= 0; i-- {
		if batch[i].snap != nil {
			last = batch[i].snap
			break
		}
	}
	st.mu.Lock()
	st.wal.durableLSN = batch[len(batch)-1].lsn
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
// accumulated, and always after a batch that adopted an out-of-band file:
// until a checkpoint replaces that file, an open would adopt it again over
// every later commit. Leader only (st.mu NOT held).
func (st *Store) maybeCheckpoint(adopt *walTicket) {
	st.mu.Lock()
	due := adopt != nil || st.checkpointEvery > 0 && st.sinceCheckpoint >= st.checkpointEvery
	st.mu.Unlock()
	if !due {
		return
	}
	// Otherwise best effort: the commits themselves are durable in the log
	// either way. A failed adoption fails, and retries with the next commit.
	if err := st.checkpointAsLeader(); err != nil && adopt != nil {
		adopt.err = err
		st.mu.Lock()
		st.sinceCheckpoint = max(st.sinceCheckpoint, st.checkpointEvery)
		st.mu.Unlock()
	}
}

// Checkpoint writes the current published snapshot as the checkpoint file
// and rotates the log. It runs as the group-commit leader, so it never
// races an append. An in-memory store returns ErrNoPath.
func (st *Store) Checkpoint() error {
	if st.wal == nil {
		return ErrNoPath
	}
	return st.lead(st.checkpointAsLeader)
}

// lead runs fn as the group-commit leader: no append, checkpoint or
// rotation runs beside it.
func (st *Store) lead(fn func() error) error {
	q := &st.walQ
	q.mu.Lock()
	for q.syncing {
		q.cond.Wait()
	}
	q.syncing = true
	q.mu.Unlock()

	err := fn()

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
	if err := writeCheckpoint(st.fs, st.path, snap, w.durableLSN); err != nil {
		return err
	}
	st.mu.Lock()
	src := st.ingestSrc
	st.mu.Unlock()
	var carry [][]byte
	if src != nil {
		carry = src()
	}
	if err := w.rotate(carry, snap.Stamps()); err != nil {
		return err
	}
	st.mu.Lock()
	st.sinceCheckpoint = 0
	st.mu.Unlock()
	return nil
}

// rotate atomically replaces the log with a fresh one containing a header
// frame plus any still-live ingest records and the checkpointed snapshot's
// stamp table carried forward (at the checkpoint LSN — they ride below the
// replay threshold on purpose, since recovery collects ingest and stamp
// frames unconditionally), and retains the old log for recovery from the
// previous checkpoint. Leader only.
func (w *wal) rotate(carry [][]byte, stamps map[string]Stamp) error {
	w.buf = appendRecord(w.buf[:0], walFrameHeader, w.durableLSN, []byte(walHeaderMagic))
	for _, p := range carry {
		w.buf = appendRecord(w.buf, walFrameIngest, w.durableLSN, p)
	}
	w.buf = appendStampRecords(w.buf, w.durableLSN, stamps)
	if err := w.log.Rewrite(w.buf, PrevPath(w.path)); err != nil {
		return fmt.Errorf("catalog: rotate wal: %w", err)
	}
	return nil
}

// Close checkpoints (best effort, unless automatic checkpoints are off), so
// after a clean shutdown the catalog file holds every commit, then closes
// the log and fails subsequent mutations with ErrClosed. Reads keep serving
// the last published snapshot. Close is a no-op on an in-memory store.
func (st *Store) Close() error {
	if st.wal == nil {
		return nil
	}
	return st.lead(func() error {
		st.mu.Lock()
		due := !st.closed && st.checkpointEvery > 0 && st.sinceCheckpoint > 0
		st.closed = true
		st.mu.Unlock()
		if due {
			_ = st.checkpointAsLeader()
		}
		return st.wal.log.Close()
	})
}

// WALStats is a point-in-time view of the log state, for observability and
// tests.
type WALStats struct {
	LSN             uint64 // last assigned LSN
	DurableLSN      uint64 // last fsynced LSN
	SinceCheckpoint int    // commits since the last checkpoint
}

// WALStatsNow reports the current log state; zero for an in-memory store.
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
