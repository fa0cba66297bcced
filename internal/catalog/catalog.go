// Package catalog is the concurrent, versioned statistics-catalog store on
// top of package stats: where each index's LRU-Fit entry lives while the
// service serves Est-IO from it on the planning hot path. This comment is
// the package's one detailed description; wal.go, persist.go and
// antientropy.go give the byte formats of the log, the checkpoint file and
// the anti-entropy streams.
//
// # Snapshots and records
//
// Readers call Snapshot (or Get, Keys, Len) and get an immutable view from
// one atomic pointer load: no lock, no allocation. A snapshot is one map
// from key ("table.column") to record, plus the sorted live keys. A record
// is one key's version, published once and never changed: the entry, its
// compiled Est-IO estimator (built on the writer's path, so serving never
// compiles), the Stamp of the key's last cluster mutation, and the CRC32-C
// of the entry's JSON, computed at most once, lazily or from JSON the
// commit already holds. A tombstone is a record without an entry, so a
// delete swaps one record and Versions walks one map; a key neither held
// nor stamped has no record. A read sees live entries only, in one lookup.
//
// Writers serialize behind a mutex. A commit copies the record map once,
// swaps in the records of the keys it changes, all made by newRecord, and
// shares every other record by pointer; a stamp fold makes a new record
// sharing the old one's entry, estimator and CRC. A single-key commit thus
// costs one map copy plus its own key's work. Each published snapshot's
// generation is one above its predecessor's, so callers (the service's
// memo) can key derived state by generation.
//
// # Stamps
//
// Every stamped write (PutStamped, DeleteStamped, Merge, ReloadStamped,
// RecordStamps) records its stamp in the same commit, and on a WAL store
// the same frame, as the content it names, and applies only if the stamp
// orders after the one the commit's base holds. So a record's stamp never
// moves backwards and always names the content or tombstone stored with
// it, and is durable exactly when the write is. Stamps decoded from peers
// stay below EpochBound.
//
// # Durability
//
// NewStore is the in-memory store; OpenWAL the one durable store (wal.go
// gives the log's frames and group commit). Readers see only fsynced
// state. Every CheckpointEvery commits, and on Checkpoint and Close, the
// published snapshot is written as a checkpoint covering the log up to its
// lsn (the previous kept as .prev), and the log rotates (the old kept as
// .wal.prev), carrying the stamp table and live ingest records forward.
// Recovery loads the checkpoint and replays the log past it; when the
// checkpoint does not verify, it loads .prev, replays both logs, removes
// the bad file and checkpoints. A log that starts past the LSN reached is
// refused (ErrCorrupt). Every crash window lands on a committed state
// (FuzzWALRecovery, FuzzOpenCatalogStore). The log doubles as the ingest
// journal (AppendIngest). File access goes through a faultfs.FS, so chaos
// tests inject faults deterministically.
//
// # Refreshes
//
// A catalog file without an lsn field (epfis gen, stats.SaveFile) is an
// out-of-band refresh that replaces the catalog, checkpointed over before
// anything later is acknowledged. OpenWAL logs the adoption as one replace
// frame; Reload logs a batch frame of the keys it changes and of those a
// later stamp keeps, so recovery from the adopted file, retained as .prev,
// replays to the committed state. On a cluster node a refresh is a write:
// ReloadStamped stamps what it changes and tombstones what it drops, and
// StampRefreshed stamps what an adoption at open changed.
//
// # Anti-entropy
//
// A node takes a peer's entry or tombstone iff the peer's Version of the
// key orders after its own: by stamp, then, for equal stamps, by CRC, so
// every node picks the same winner. Versions is the digest, ExportEntries
// and DecodeEntries the trailered entry stream, and Merge the one commit
// that folds a peer's versions in.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"epfis/internal/core"
	"epfis/internal/curvefit"
	"epfis/internal/faultfs"
	"epfis/internal/histogram"
	"epfis/internal/stats"
)

// ErrNoPath is returned by Reload, Checkpoint and AppendIngest on a store
// that is not bound to a catalog file.
var ErrNoPath = errors.New("catalog: store has no backing file")

// ErrNotFound aliases the stats-package sentinel so callers can test lookup
// misses without importing both packages.
var ErrNotFound = stats.ErrNotFound

// Snapshot is an immutable point-in-time view of the catalog: one map from
// key to record, and the sorted live keys. All methods are safe for
// concurrent use; the *stats.IndexStats values it returns are shared across
// snapshots and must not be mutated.
type Snapshot struct {
	gen  uint64
	keys []string           // sorted; the keys whose record holds an entry
	recs map[string]*record // entries and tombstones
}

// record is one key's version (see the package comment). A tombstone has
// no entry and a non-zero stamp; compiled is nil when the entry did not
// compile, and readers then fall back to interpreted EstIO.
type record struct {
	entry    *stats.IndexStats
	compiled *core.CompiledEstimator
	stamp    Stamp
	crc      atomic.Uint64 // knownCRC(CRC32-C of the entry's JSON), 0 until known
}

// knownCRC is a record's crc field once its CRC c is known.
func knownCRC(c uint32) uint64 { return 1<<32 | uint64(c) }

// newRecord makes a key's version: entry e under stamp s, or, for a nil e,
// the tombstone s. Neither (a nil e and the zero s) is the nil record: the
// key is absent. like is the record it replaces, or nil. When like holds e
// under s it is returned as it is; when it holds e under another stamp (a
// stamp fold), the new record shares its estimator and CRC. Otherwise e is
// compiled here, on the writer's path, never on a request path.
func newRecord(e *stats.IndexStats, s Stamp, like *record) *record {
	if e == nil && s == (Stamp{}) {
		return nil
	}
	r := &record{entry: e, stamp: s}
	switch {
	case like != nil && like.entry == e && like.stamp == s:
		return like
	case like != nil && like.entry == e:
		r.compiled = like.compiled
		r.crc.Store(like.crc.Load())
	case e != nil:
		if ce, err := core.Compile(e, core.Options{}); err == nil {
			r.compiled = ce
		}
	}
	return r
}

// held reports r's entry and stamp; the nil record holds neither.
func (r *record) held() (*stats.IndexStats, Stamp) {
	if r == nil {
		return nil, Stamp{}
	}
	return r.entry, r.stamp
}

// version reports r's version, computing its CRC on first use; the nil
// record is the zero Version.
func (r *record) version() (Version, error) {
	if r == nil {
		return Version{}, nil
	}
	c := r.crc.Load()
	if c == 0 && r.entry != nil {
		crc, err := entryCRC(r.entry)
		if err != nil {
			return Version{}, err
		}
		c = knownCRC(crc)
		r.crc.Store(c)
	}
	return Version{Stamp: r.stamp, CRC: uint32(c), Tombstone: r.entry == nil}, nil
}

// Stamp is the total order on one key's cluster mutations: the Lamport
// epoch the mutation was assigned, tie-broken by the ID of the node that
// assigned it. Two sides of a partition can assign the identical epoch to
// concurrent mutations of the same key (both advance in lockstep from the
// same base); the originator tiebreaker makes every node pick the same
// winner after heal, so replicas converge instead of each dropping the
// other's write as stale. The zero Stamp means no cluster mutation.
type Stamp struct {
	Epoch  uint64
	Origin string
}

// Less reports whether s orders strictly before o: by epoch, then by
// originating node ID. Equal stamps (redelivery of the same mutation) are
// not Less, so application stays idempotent.
func (s Stamp) Less(o Stamp) bool {
	if s.Epoch != o.Epoch {
		return s.Epoch < o.Epoch
	}
	return s.Origin < o.Origin
}

// Generation reports the snapshot's version number. Generations increase by
// one per committed write; generation 0 is the empty store.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Len reports the number of catalog entries.
func (s *Snapshot) Len() int { return len(s.keys) }

// Keys lists the entry keys ("table.column") in sorted order. The returned
// slice is a copy and may be retained or mutated by the caller.
func (s *Snapshot) Keys() []string {
	ks := make([]string, len(s.keys))
	copy(ks, s.keys)
	return ks
}

// Get returns the entry for table.column, or an error wrapping ErrNotFound.
// The returned entry is shared; treat it as read-only.
func (s *Snapshot) Get(table, column string) (*stats.IndexStats, error) {
	if e, ok := s.Lookup(table + "." + column); ok {
		return e, nil
	}
	return nil, fmt.Errorf("%w: %s.%s", ErrNotFound, table, column)
}

// Lookup is Get by precomputed key, returning ok = false on a miss.
func (s *Snapshot) Lookup(key string) (*stats.IndexStats, bool) {
	e, _ := s.recs[key].held()
	return e, e != nil
}

// Compiled returns the pre-compiled Est-IO estimator for table.column, built
// once when its record was made (off the request path). The serving hot
// path uses this instead of re-validating the raw entry per call. It is a
// plain map lookup: no locks, no allocation for short keys.
func (s *Snapshot) Compiled(table, column string) (*core.CompiledEstimator, bool) {
	return s.CompiledByKey(table + "." + column)
}

// CompiledByKey is Compiled by precomputed "table.column" key.
func (s *Snapshot) CompiledByKey(key string) (*core.CompiledEstimator, bool) {
	if r := s.recs[key]; r != nil && r.compiled != nil {
		return r.compiled, true
	}
	return nil, false
}

// Stamp reports the last mutation stamp recorded for key, a delete's
// tombstone included; the zero Stamp means none.
func (s *Snapshot) Stamp(key string) Stamp {
	_, st := s.recs[key].held()
	return st
}

// Stamps copies the stamp table: every stamped key's stamp, tombstones
// included.
func (s *Snapshot) Stamps() map[string]Stamp {
	out := map[string]Stamp{}
	for k, r := range s.recs {
		if r.stamp != (Stamp{}) {
			out[k] = r.stamp
		}
	}
	return out
}

// Catalog materializes the snapshot as a plain stats.Catalog (copying every
// entry), for interoperation with code written against the non-concurrent
// type.
func (s *Snapshot) Catalog() (*stats.Catalog, error) {
	c := stats.NewCatalog()
	for _, k := range s.keys {
		if err := c.Put(s.recs[k].entry); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// entries indexes the snapshot's live entries by key.
func (s *Snapshot) entries() map[string]*stats.IndexStats {
	out := make(map[string]*stats.IndexStats, len(s.keys))
	for _, k := range s.keys {
		out[k] = s.recs[k].entry
	}
	return out
}

// Store is the concurrent, versioned catalog store. The zero value is not
// usable; construct with NewStore or OpenWAL. Methods are safe for concurrent
// use by any number of goroutines.
type Store struct {
	snap atomic.Pointer[Snapshot]

	mu        sync.Mutex // serializes writers and persistence
	path      string     // "" = in-memory only
	fs        faultfs.FS // filesystem for persistence (faultfs.OS outside tests)
	recovered bool       // OpenWAL served the .prev checkpoint

	// The log (nil wal = in-memory store). applied is the newest built
	// snapshot — possibly not yet durable — that the next mutation stacks
	// on; snap only ever advances to fsynced state. Both are guarded by mu;
	// see wal.go for the group-commit protocol.
	wal             *wal
	walQ            walQueue
	applied         *Snapshot
	checkpointEvery int
	sinceCheckpoint int
	closed          bool

	// ingestSrc reports the still-live ingest-journal records a checkpoint
	// must carry into the rotated log (see SetIngestSource in wal.go).
	ingestSrc func() [][]byte

	// refreshed names the keys OpenWAL's adoption of an out-of-band file
	// changed, added or removed, until StampRefreshed stamps them.
	refreshed []string
}

// NewStore returns an empty in-memory store (no persistence).
func NewStore() *Store {
	st := &Store{fs: faultfs.OS()}
	st.snap.Store(newSnapshot(0, nil, nil))
	return st
}

// Path reports the backing catalog file, or "" for an in-memory store.
func (st *Store) Path() string { return st.path }

// Recovered reports whether OpenWAL could not verify the catalog file and
// served the retained previous checkpoint instead.
func (st *Store) Recovered() bool { return st.recovered }

// Snapshot returns the current immutable view. This is a single atomic load;
// call it once per request and perform all related lookups against the same
// snapshot for a consistent read.
func (st *Store) Snapshot() *Snapshot { return st.snap.Load() }

// Generation reports the current snapshot's generation.
func (st *Store) Generation() uint64 { return st.Snapshot().gen }

// Len reports the current number of entries.
func (st *Store) Len() int { return st.Snapshot().Len() }

// Keys lists the current entry keys in sorted order.
func (st *Store) Keys() []string { return st.Snapshot().Keys() }

// Get returns the current entry for table.column. The returned entry is
// shared; treat it as read-only.
func (st *Store) Get(table, column string) (*stats.IndexStats, error) {
	return st.Snapshot().Get(table, column)
}

// Put validates and installs (or replaces) an entry, returning the new
// generation. The entry is deep-copied, so the caller may keep mutating its
// own copy.
func (st *Store) Put(e *stats.IndexStats) (uint64, error) { return st.put(e, Stamp{}) }

// PutStamped is Put for a cluster mutation: the same commit records s as
// the key's stamp, so the stamp is published and made durable together
// with the entry. It applies only if s orders after the stamp the commit's
// base holds for the key, and returns ErrStale otherwise.
func (st *Store) PutStamped(e *stats.IndexStats, s Stamp) (uint64, error) { return st.put(e, s) }

func (st *Store) put(e *stats.IndexStats, s Stamp) (uint64, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	cp := deepCopy(e)
	key := cp.Key()
	ftype, body, crc := walFramePut, []byte(nil), uint64(0)
	if st.wal != nil {
		j, err := json.Marshal(cp)
		if err != nil {
			return 0, fmt.Errorf("catalog: encode commit: %w", err)
		}
		body, crc = j, knownCRC(crc32.Checksum(j, crcTable))
		if s != (Stamp{}) {
			ftype, body = walFramePutStamped, append(appendStampHeader(nil, s, key), j...)
		}
	}
	stale := false
	gen, err := st.commit(frame(ftype, body), false, func(base *Snapshot) (*Snapshot, bool) {
		held := base.recs[key]
		_, hs := held.held()
		if stale = s != (Stamp{}) && !hs.Less(s); stale {
			return nil, false
		}
		r := newRecord(cp, later(hs, s), held)
		r.crc.Store(crc) // the log frame's JSON, when there is one
		return base.derive(map[string]*record{key: r}), true
	})
	if stale {
		return 0, ErrStale
	}
	return gen, err
}

// Delete removes the entry for table.column, reporting whether it existed.
// Deleting a missing entry is a no-op that does not bump the generation.
func (st *Store) Delete(table, column string) (bool, uint64, error) {
	return st.DeleteStamped(table, column, Stamp{})
}

// DeleteStamped is Delete for a cluster mutation: the same commit records s
// as the key's stamp, the tombstone that keeps an older write from bringing
// the key back. An absent key is the same no-op as for Delete; a peer's
// tombstone for a key this node lacks enters through Merge. Like
// PutStamped it returns ErrStale, committing nothing, unless s orders after
// the stamp the commit's base holds.
func (st *Store) DeleteStamped(table, column string, s Stamp) (bool, uint64, error) {
	key := table + "." + column
	ftype, body := walFrameDelete, []byte(key)
	if s != (Stamp{}) {
		ftype, body = walFrameDeleteStamped, appendStampHeader(nil, s, key)
	}
	existed, stale := false, false
	gen, err := st.commit(frame(ftype, body), false, func(base *Snapshot) (*Snapshot, bool) {
		held := base.recs[key]
		e, hs := held.held()
		existed = e != nil
		if stale = s != (Stamp{}) && !hs.Less(s); stale || !existed {
			return nil, false
		}
		// An unstamped delete of a stamped key leaves its stamp as the
		// tombstone; an unstamped key goes.
		return base.derive(map[string]*record{key: newRecord(nil, later(hs, s), held)}), true
	})
	if stale {
		return existed, 0, ErrStale
	}
	if err != nil {
		return false, 0, err
	}
	if gen == 0 { // aborted: key absent
		return false, st.Generation(), nil
	}
	return existed, gen, nil
}

// RecordStamps folds stamps into the stamp table as one commit, each key
// keeping the later of its held and given stamp; entries are untouched (a
// stamp for a key without an entry is a tombstone). It imports stamps kept
// outside the store, such as an older release's stamp journal, and stamps
// what OpenWAL adopted (StampRefreshed). An empty map commits nothing.
func (st *Store) RecordStamps(stamps map[string]Stamp) (uint64, error) {
	if len(stamps) == 0 {
		return st.Generation(), nil
	}
	rec := func(lsn uint64, _ *Snapshot) ([]byte, error) { return appendStampRecords(nil, lsn, stamps), nil }
	return st.commit(rec, false, func(base *Snapshot) (*Snapshot, bool) {
		folded := map[string]*record{}
		for k, s := range stamps {
			held := base.recs[k]
			if e, hs := held.held(); hs.Less(s) {
				folded[k] = newRecord(e, s, held)
			}
		}
		return base.derive(folded), true
	})
}

// ReplaceAll swaps the entire catalog contents for c's entries in one
// generation step (c itself is not retained). The stamp table is kept: a
// stamped key c lacks becomes a tombstone.
func (st *Store) ReplaceAll(c *stats.Catalog) (uint64, error) {
	next := map[string]*stats.IndexStats{}
	for _, k := range c.Keys() {
		e, err := c.Get(splitKey(k))
		if err != nil {
			return 0, err
		}
		next[k] = deepCopy(e)
	}
	var body []byte
	if st.wal != nil {
		p, err := encodeCatalog(c)
		if err != nil {
			return 0, fmt.Errorf("catalog: encode commit: %w", err)
		}
		body = p
	}
	return st.commit(frame(walFrameReplace, body), false, func(base *Snapshot) (*Snapshot, bool) {
		changed := make(map[string]*record, len(base.recs)+len(next))
		for k, r := range base.recs {
			changed[k] = newRecord(next[k], r.stamp, r)
		}
		for k, e := range next {
			if base.recs[k] == nil {
				changed[k] = newRecord(e, Stamp{}, nil)
			}
		}
		return base.derive(changed), true
	})
}

// entriesOf indexes a loaded catalog's entries by key; nil c is empty.
func entriesOf(c *stats.Catalog) map[string]*stats.IndexStats {
	entries := map[string]*stats.IndexStats{}
	if c == nil {
		return entries
	}
	for _, k := range c.Keys() {
		if e, err := c.Get(splitKey(k)); err == nil {
			entries[k] = e
		}
	}
	return entries
}

// newSnapshot assembles generation gen from an entry set and a stamp
// table, as OpenWAL does after replay: a record per key either names,
// derived from the empty snapshot.
func newSnapshot(gen uint64, entries map[string]*stats.IndexStats, stamps map[string]Stamp) *Snapshot {
	recs := make(map[string]*record, len(entries)+len(stamps))
	for k, s := range stamps {
		recs[k] = newRecord(entries[k], s, nil)
	}
	for k, e := range entries {
		if _, ok := stamps[k]; !ok {
			recs[k] = newRecord(e, Stamp{}, nil)
		}
	}
	snap := (&Snapshot{recs: map[string]*record{}}).derive(recs)
	snap.gen = gen
	return snap
}

// derive builds the snapshot a commit publishes: s's records with those in
// changed set in their place (a nil record removes its key). It copies s's
// one map once and shares every other record by pointer, so a single-key
// commit costs one map copy and the work of its own key; the sorted key
// slice is s's unless the live key set changed, and one key's arrival or
// departure splices it. A commit that changes nothing still takes the next
// generation.
func (s *Snapshot) derive(changed map[string]*record) *Snapshot {
	next := &Snapshot{gen: s.gen + 1, keys: s.keys, recs: s.recs}
	if len(changed) == 0 {
		return next
	}
	next.recs = maps.Clone(s.recs)
	moved, key := 0, ""
	for k, r := range changed {
		if r == nil {
			delete(next.recs, k)
		} else {
			next.recs[k] = r
		}
		if was, _ := s.recs[k].held(); (was != nil) != (r != nil && r.entry != nil) {
			moved, key = moved+1, k
		}
	}
	switch i, found := slices.BinarySearch(s.keys, key); {
	case moved > 1:
		next.keys = make([]string, 0, len(next.recs))
		for k, r := range next.recs {
			if r.entry != nil {
				next.keys = append(next.keys, k)
			}
		}
		sort.Strings(next.keys)
	case moved == 1 && found:
		next.keys = slices.Delete(slices.Clone(s.keys), i, i+1)
	case moved == 1:
		next.keys = slices.Insert(slices.Clip(s.keys), i, key)
	}
	return next
}

// later is the later of two stamps.
func later(a, b Stamp) Stamp {
	if a.Less(b) {
		return b
	}
	return a
}

// deepCopy clones an entry including its slice-backed fields, so snapshot
// entries never alias caller-owned memory.
func deepCopy(e *stats.IndexStats) *stats.IndexStats {
	cp := *e
	if e.Curve.Knots != nil {
		cp.Curve.Knots = append([]curvefit.Point(nil), e.Curve.Knots...)
	}
	if e.KeyHistogram != nil {
		cp.KeyHistogram = append([]histogram.Bucket(nil), e.KeyHistogram...)
	}
	return &cp
}

func splitKey(key string) (table, column string) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '.' {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}
