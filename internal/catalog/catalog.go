// Package catalog provides a concurrent, versioned statistics-catalog store
// on top of package stats, designed for the estimation service's read-heavy
// workload: Est-IO lookups happen on the planning hot path of every query,
// while statistics installs and refreshes (LRU-Fit reruns) are rare.
//
// The concurrency model is copy-on-write snapshots:
//
//   - Readers call Snapshot (or the Get/Keys/Len conveniences) and receive an
//     immutable view through a single atomic pointer load — no locks, no
//     contention, no allocation. Entries inside a snapshot are shared and
//     must be treated as read-only.
//
//   - Writers (Put, Delete, ReplaceAll, Reload) serialize behind a mutex,
//     build a fresh entry map from the current one, persist it, and publish
//     the new snapshot with one atomic store. A reader that loaded the old
//     snapshot keeps a consistent view for as long as it holds the pointer.
//
// Every published snapshot carries a monotonically increasing generation
// number, so callers (for example the service's estimate memo cache) can key
// derived state by generation and have it invalidate naturally when
// statistics change.
//
// A snapshot also carries the stamp table: for each key a cluster mutation
// has touched, the Stamp of the last one applied, a delete's tombstone
// included. PutStamped and DeleteStamped record a stamp in the same commit
// as the entry change, so a reader sees both or neither and the stamp is
// durable exactly when the write is.
//
// A store opened with OpenWAL persists every commit through a group-
// committed write-ahead log with periodic checkpoints (see wal.go), and
// recovers from a corrupt, truncated, or crash-orphaned checkpoint file by
// falling back to the retained previous checkpoint and the log rotated away
// with it. Reload re-reads the catalog file in place so statistics
// refreshed out-of-process swap in without downtime. All filesystem access
// goes through a faultfs.FS, so chaos tests (and the EPFIS_FAULTS knob) can
// inject torn writes, failed fsyncs, and slow disks deterministically.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
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

// Snapshot is an immutable point-in-time view of the catalog. All methods
// are safe for concurrent use; the *stats.IndexStats values it returns are
// shared across snapshots and must not be mutated.
type Snapshot struct {
	gen      uint64
	entries  map[string]*stats.IndexStats
	compiled map[string]*core.CompiledEstimator // same keys as entries
	keys     []string                           // sorted
	stamps   map[string]Stamp                   // never nil; may name keys entries lacks (tombstones)
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
func (s *Snapshot) Len() int { return len(s.entries) }

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
	e, ok := s.entries[table+"."+column]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNotFound, table, column)
	}
	return e, nil
}

// Lookup is Get by precomputed key, returning ok = false on a miss.
func (s *Snapshot) Lookup(key string) (*stats.IndexStats, bool) {
	e, ok := s.entries[key]
	return e, ok
}

// Compiled returns the pre-compiled Est-IO estimator for table.column, built
// once when the snapshot was published (off the request path). The serving
// hot path uses this instead of re-validating the raw entry per call. It is a
// plain map lookup: no locks, no allocation for short keys.
func (s *Snapshot) Compiled(table, column string) (*core.CompiledEstimator, bool) {
	ce, ok := s.compiled[table+"."+column]
	return ce, ok
}

// CompiledByKey is Compiled by precomputed "table.column" key.
func (s *Snapshot) CompiledByKey(key string) (*core.CompiledEstimator, bool) {
	ce, ok := s.compiled[key]
	return ce, ok
}

// Stamp reports the last mutation stamp recorded for key, a delete's
// tombstone included; the zero Stamp means none.
func (s *Snapshot) Stamp(key string) Stamp { return s.stamps[key] }

// Stamps copies the stamp table.
func (s *Snapshot) Stamps() map[string]Stamp { return maps.Clone(s.stamps) }

// Catalog materializes the snapshot as a plain stats.Catalog (copying every
// entry), for interoperation with code written against the non-concurrent
// type.
func (s *Snapshot) Catalog() (*stats.Catalog, error) {
	c := stats.NewCatalog()
	for _, k := range s.keys {
		if err := c.Put(s.entries[k]); err != nil {
			return nil, err
		}
	}
	return c, nil
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

	crcs crcCache // entry CRCs for Versions and Merge
}

// NewStore returns an empty in-memory store (no persistence).
func NewStore() *Store {
	st := &Store{fs: faultfs.OS()}
	st.snap.Store(newSnapshot(0, map[string]*stats.IndexStats{}, map[string]Stamp{}, nil))
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
	ftype, body := walFramePut, []byte(nil)
	if st.wal != nil {
		j, err := json.Marshal(cp)
		if err != nil {
			return 0, fmt.Errorf("catalog: encode commit: %w", err)
		}
		body = j
		if s != (Stamp{}) {
			ftype, body = walFramePutStamped, append(appendStampHeader(nil, s, key), j...)
		}
	}
	stale := false
	gen, err := st.commit(frame(ftype, body), false, func(base *Snapshot) (*Snapshot, bool) {
		if stale = s != (Stamp{}) && !base.stamps[key].Less(s); stale {
			return nil, false
		}
		next := cloneEntries(base.entries)
		next[key] = cp
		return base.derive(key, next, s), true
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
		_, existed = base.entries[key]
		if stale = s != (Stamp{}) && !base.stamps[key].Less(s); stale || !existed {
			return nil, false
		}
		next := cloneEntries(base.entries)
		delete(next, key)
		return base.derive(key, next, s), true
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
// keeping the later of its held and given stamp; entries are untouched.
// It imports stamps kept outside the store, such as an older release's
// stamp journal, and stamps what OpenWAL adopted (StampRefreshed). An empty
// map commits nothing.
func (st *Store) RecordStamps(stamps map[string]Stamp) (uint64, error) {
	if len(stamps) == 0 {
		return st.Generation(), nil
	}
	rec := func(lsn uint64, _ *Snapshot) ([]byte, error) { return appendStampRecords(nil, lsn, stamps), nil }
	return st.commit(rec, false, func(base *Snapshot) (*Snapshot, bool) {
		next := *base
		next.gen++
		next.stamps = maps.Clone(base.stamps)
		for k, s := range stamps {
			foldStamp(next.stamps, k, s)
		}
		return &next, true
	})
}

// ReplaceAll swaps the entire catalog contents for c's entries in one
// generation step (c itself is not retained). The stamp table is kept.
func (st *Store) ReplaceAll(c *stats.Catalog) (uint64, error) {
	next := map[string]*stats.IndexStats{}
	for _, k := range c.Keys() {
		e, err := c.Get(splitKey(k))
		if err != nil {
			return 0, err
		}
		next[k] = deepCopy(e)
	}
	return st.commitReplace(next)
}

// commitReplace installs a full entry set as one generation step.
func (st *Store) commitReplace(next map[string]*stats.IndexStats) (uint64, error) {
	var body []byte
	if st.wal != nil {
		p, err := encodeEntriesJSON(next)
		if err != nil {
			return 0, fmt.Errorf("catalog: encode commit: %w", err)
		}
		body = p
	}
	return st.commit(frame(walFrameReplace, body), false, func(base *Snapshot) (*Snapshot, bool) {
		return newSnapshot(base.gen+1, next, base.stamps, base), true
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

// newSnapshot assembles a snapshot, compiling an Est-IO estimator for every
// entry. Compilation happens here — on the writer's (or loader's) path, never
// on a request path — and entries carried over unchanged from prev (same
// pointer, thanks to the copy-on-write entry sharing in cloneEntries) reuse
// prev's compiled estimator instead of recompiling; when the key set is
// prev's, so is the sorted key slice. An entry that fails to compile
// (impossible for entries that passed validation, but recovery paths are
// deliberately paranoid) simply has no compiled form; readers fall back to
// interpreted EstIO for it.
func newSnapshot(gen uint64, entries map[string]*stats.IndexStats, stamps map[string]Stamp, prev *Snapshot) *Snapshot {
	s := &Snapshot{
		gen:      gen,
		entries:  entries,
		compiled: make(map[string]*core.CompiledEstimator, len(entries)),
		stamps:   stamps,
	}
	kept := 0 // keys prev also holds
	for k, e := range entries {
		if prev != nil {
			if pe, ok := prev.entries[k]; ok {
				kept++
				if ce, ok := prev.compiled[k]; ok && pe == e {
					s.compiled[k] = ce
					continue
				}
			}
		}
		if ce, err := core.Compile(e, core.Options{}); err == nil {
			s.compiled[k] = ce
		}
	}
	if prev != nil && kept == len(entries) && kept == len(prev.entries) {
		s.keys = prev.keys
	} else {
		s.keys = sortedKeys(entries)
	}
	return s
}

// derive builds the snapshot after a single-key commit: entries differs
// from s's entry set at most under key, and a non-zero stamp is recorded for
// key. Only key's compiled estimator, sorted position and stamp are redone;
// everything else is shared with s, so the work does not grow with the
// catalog beyond the map copies copy-on-write needs.
func (s *Snapshot) derive(key string, entries map[string]*stats.IndexStats, stamp Stamp) *Snapshot {
	next := &Snapshot{gen: s.gen + 1, entries: entries, compiled: s.compiled, keys: s.keys, stamps: s.stamps}
	if s.stamps[key].Less(stamp) {
		next.stamps = maps.Clone(s.stamps)
		next.stamps[key] = stamp
	}
	e, now := entries[key]
	pe, was := s.entries[key]
	if now == was && e == pe {
		return next
	}
	next.compiled = maps.Clone(s.compiled)
	delete(next.compiled, key)
	if now {
		if ce, err := core.Compile(e, core.Options{}); err == nil {
			next.compiled[key] = ce
		}
	}
	i, _ := slices.BinarySearch(s.keys, key)
	switch {
	case now && !was:
		next.keys = slices.Insert(slices.Clip(s.keys), i, key)
	case was && !now:
		next.keys = slices.Delete(slices.Clone(s.keys), i, i+1)
	}
	return next
}

func cloneEntries(m map[string]*stats.IndexStats) map[string]*stats.IndexStats {
	out := make(map[string]*stats.IndexStats, len(m)+1)
	for k, v := range m {
		out[k] = v // entries are immutable; share them across generations
	}
	return out
}

// foldStamp records s for key unless the table already holds a later one.
func foldStamp(stamps map[string]Stamp, key string, s Stamp) {
	if stamps[key].Less(s) {
		stamps[key] = s
	}
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

func sortedKeys(m map[string]*stats.IndexStats) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func splitKey(key string) (table, column string) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '.' {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}
