package catalog

// Anti-entropy primitives for the cluster layer.
//
// Replicas converge by one rule: a node takes a peer's entry or tombstone
// if and only if the peer's Version of the key orders after its own.
// Versions order by stamp; equal stamps, unstamped keys included, fall back
// to the CRC32-C of the entry's JSON, so every node picks the same winner.
//
// Versions reports every key's version from one snapshot — the digest a
// peer diffs against its own. ExportEntries renders the entries a peer
// asked for, each with its stamp, from one snapshot as a trailered stream
// (the checkpoint file's framing, so the receiver gets end-to-end
// corruption detection); DecodeEntries verifies and parses it. Merge
// decides, key by key and from the commit's own base, what to take, and
// logs the taken keys, each record carrying its stamp beside its content,
// in one batch frame, so a stamp is always durable with the content it
// names and the merge lands whole or not at all.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"

	"epfis/internal/stats"
)

// ErrStale reports a stamped write whose stamp does not order after the one
// the store holds for its key: a later (or the same) write is already
// there, and nothing was committed.
var ErrStale = errors.New("catalog: stamp does not advance the key")

// MarshalText renders a stamp as "epoch/origin", the compact form digests
// and entry streams carry.
func (s Stamp) MarshalText() ([]byte, error) {
	return fmt.Appendf(nil, "%d/%s", s.Epoch, s.Origin), nil
}

// UnmarshalText parses MarshalText's form. The epoch is digits, so the
// first "/" ends it whatever the origin holds.
func (s *Stamp) UnmarshalText(b []byte) error {
	epoch, origin, ok := strings.Cut(string(b), "/")
	e, err := strconv.ParseUint(epoch, 10, 64)
	if !ok || err != nil {
		return fmt.Errorf("catalog: malformed stamp %q, want epoch/origin", b)
	}
	*s = Stamp{Epoch: e, Origin: origin}
	return nil
}

// Version is one key's state as anti-entropy compares it across nodes: the
// stamp of its last mutation and the CRC32-C of its entry's JSON. A
// tombstone (a stamped key with no entry) has CRC 0.
type Version struct {
	Stamp     Stamp
	CRC       uint32
	Tombstone bool
}

// After reports whether v orders after o: by stamp, then, for equal stamps,
// by CRC. The zero Version (a key a node has never heard of) orders before
// every entry and tombstone.
func (v Version) After(o Version) bool {
	if v.Stamp != o.Stamp {
		return o.Stamp.Less(v.Stamp)
	}
	return v.CRC > o.CRC
}

// Incoming is a peer's version of one key offered to Merge: an entry with
// its stamp and the CRC of its JSON (as DecodeEntries computes it), a
// tombstone, or, with neither Entry nor Tombstone, a stamp to fold onto a
// local entry whose CRC matches (the peer's later write stored the same
// content).
type Incoming struct {
	Version
	Entry *stats.IndexStats
}

// crcCache remembers each entry's CRC by entry pointer. Entries are
// immutable and shared across generations, so a digest recomputes only
// what changed since the last one.
type crcCache struct {
	mu sync.Mutex
	m  map[*stats.IndexStats]uint32
}

// entryCRC is the CRC32-C of an entry's JSON encoding, which is
// deterministic, so nodes holding the same entry agree on it.
func entryCRC(e *stats.IndexStats) (uint32, error) {
	j, err := json.Marshal(e)
	if err != nil {
		return 0, err
	}
	return crc32.Checksum(j, crcTable), nil
}

func (c *crcCache) get(e *stats.IndexStats) (uint32, error) {
	c.mu.Lock()
	crc, ok := c.m[e]
	c.mu.Unlock()
	if ok {
		return crc, nil
	}
	crc, err := entryCRC(e)
	if err != nil {
		return 0, err
	}
	c.put(e, crc)
	return crc, nil
}

// put records an entry's CRC computed elsewhere, such as a merged entry's,
// which DecodeEntries computed from the same JSON.
func (c *crcCache) put(e *stats.IndexStats, crc uint32) {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[*stats.IndexStats]uint32{}
	}
	c.m[e] = crc
	c.mu.Unlock()
}

// prune drops cached CRCs of entries no longer in live, once the cache has
// grown past twice the live set.
func (c *crcCache) prune(live map[string]*stats.IndexStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) <= 2*len(live)+16 {
		return
	}
	keep := make(map[*stats.IndexStats]uint32, len(live))
	for _, e := range live {
		if crc, ok := c.m[e]; ok {
			keep[e] = crc
		}
	}
	c.m = keep
}

// orders reports whether v orders after key's version in snapshot s. Only
// a stamp tie needs the held entry's CRC, so only a tie computes it.
func (st *Store) orders(v Version, s *Snapshot, key string) (bool, error) {
	if held := s.stamps[key]; held != v.Stamp {
		return held.Less(v.Stamp), nil
	}
	local, err := st.version(s, key)
	return v.After(local), err
}

// version reports key's version in snapshot s.
func (st *Store) version(s *Snapshot, key string) (Version, error) {
	v := Version{Stamp: s.stamps[key]}
	e, ok := s.entries[key]
	if !ok {
		v.Tombstone = v.Stamp != (Stamp{})
		return v, nil
	}
	crc, err := st.crcs.get(e)
	v.CRC = crc
	return v, err
}

// Versions reports the version of every entry and every tombstone, read
// from one snapshot, and that snapshot's generation: each CRC and stamp
// describe the same content.
func (st *Store) Versions() (map[string]Version, uint64, error) {
	snap := st.Snapshot()
	out := make(map[string]Version, len(snap.entries)+len(snap.stamps))
	for k := range snap.entries {
		v, err := st.version(snap, k)
		if err != nil {
			return nil, 0, err
		}
		out[k] = v
	}
	for k, s := range snap.stamps {
		if _, ok := snap.entries[k]; !ok {
			out[k] = Version{Stamp: s, Tombstone: true}
		}
	}
	st.crcs.prune(snap.entries)
	return out, snap.gen, nil
}

// entriesDoc is the payload of an entry stream.
type entriesDoc[E any] struct {
	Entries    []E              `json:"entries"`
	Tombstones map[string]Stamp `json:"tombstones,omitempty"`
	Covered    int              `json:"covered"` // how many of the asked keys the stream answers
}

type stampedEntry struct {
	Stamp *Stamp            `json:"stamp,omitempty"`
	Entry *stats.IndexStats `json:"entry"`
}

// ExportEntries renders the entries (each with its stamp) and tombstones of
// keys, read from one snapshot, as one trailered stream. It stops before
// the payload would pass maxBytes, always taking at least one key, and
// reports how many of keys the stream covers; a key the store neither holds
// nor tombstoned is covered by its absence.
func (st *Store) ExportEntries(keys []string, maxBytes int) ([]byte, int, error) {
	snap := st.Snapshot()
	var doc entriesDoc[json.RawMessage]
	size, n := 160, 0 // the document's framing and the trailer, with slack
	for _, k := range keys {
		s := snap.stamps[k]
		e, ok := snap.entries[k]
		var item json.RawMessage
		grow := len(k) + 32 // a tombstone's "key":"epoch/origin" pair
		if ok {
			j, err := json.Marshal(stampedEntry{Stamp: stampPtr(s), Entry: e})
			if err != nil {
				return nil, 0, err
			}
			item, grow = j, len(j)+1
		}
		if n > 0 && size+grow > maxBytes {
			break
		}
		size += grow
		n++
		switch {
		case ok:
			doc.Entries = append(doc.Entries, item)
		case s != (Stamp{}):
			if doc.Tombstones == nil {
				doc.Tombstones = map[string]Stamp{}
			}
			doc.Tombstones[k] = s
		}
	}
	doc.Covered = n
	payload, err := json.Marshal(doc)
	if err != nil {
		return nil, 0, err
	}
	return withTrailer(payload, ""), n, nil
}

func stampPtr(s Stamp) *Stamp {
	if s == (Stamp{}) {
		return nil
	}
	return &s
}

// DecodeEntries verifies an ExportEntries stream — a stream without a
// checksum trailer is refused, since network transfers get no legacy grace
// — and returns its keys as Merge input, each entry validated and its CRC
// computed here rather than trusted from the wire, plus how many of the
// asked keys the stream answers.
func DecodeEntries(data []byte) (map[string]Incoming, int, error) {
	if !bytes.Contains(data, []byte(trailerPrefix)) {
		return nil, 0, fmt.Errorf("%w: entry stream has no checksum trailer", ErrCorrupt)
	}
	payload, _, _, err := verifyPayload(data)
	if err != nil {
		return nil, 0, err
	}
	var doc entriesDoc[stampedEntry]
	if err := json.Unmarshal(payload, &doc); err != nil {
		return nil, 0, fmt.Errorf("catalog: decode entries: %w", err)
	}
	out := make(map[string]Incoming, len(doc.Entries)+len(doc.Tombstones))
	for _, se := range doc.Entries {
		if se.Entry == nil {
			return nil, 0, fmt.Errorf("catalog: decode entries: item without an entry")
		}
		if err := se.Entry.Validate(); err != nil {
			return nil, 0, fmt.Errorf("catalog: decode entries: %s: %w", se.Entry.Key(), err)
		}
		crc, err := entryCRC(se.Entry)
		if err != nil {
			return nil, 0, err
		}
		in := Incoming{Version: Version{CRC: crc}, Entry: se.Entry}
		if se.Stamp != nil {
			in.Stamp = *se.Stamp
		}
		out[se.Entry.Key()] = in
	}
	for k, s := range doc.Tombstones {
		if s == (Stamp{}) {
			return nil, 0, fmt.Errorf("catalog: decode entries: unstamped tombstone %q", k)
		}
		out[k] = Incoming{Version: Version{Stamp: s, Tombstone: true}}
	}
	return out, doc.Covered, nil
}

// Merge folds a peer's versions into the store as one commit, taking each
// key if and only if the peer's version orders after the one the commit's
// base holds: an entry replaces the local one, a tombstone deletes it (or,
// for a key the node lacks, is recorded so an older copy cannot come back),
// and a stamp fold lands only while the base still holds that CRC. Keys the
// peer did not offer are kept. Every decision is made inside the commit,
// so a write that lands while the peer's streams are fetched is never
// reverted, and the taken keys are logged, with their stamps, in one frame.
// It reports the generation and the keys taken; with none, nothing is
// committed and the generation is the current one.
func (st *Store) Merge(in map[string]Incoming) (uint64, []string, error) {
	keys := make([]string, 0, len(in))
	for k := range in {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var taken []string
	var ferr error
	rec := func(lsn uint64, next *Snapshot) ([]byte, error) { return appendKeyRecords(nil, lsn, next, taken) }
	gen, err := st.commit(rec, false, func(base *Snapshot) (*Snapshot, bool) {
		taken = taken[:0]
		var entries map[string]*stats.IndexStats
		var stamps map[string]Stamp
		for _, k := range keys {
			p := in[k]
			if p.Entry == nil && !p.Tombstone {
				// A stamp fold: same content, later write.
				local, err := st.version(base, k)
				if err != nil {
					ferr = err
					return nil, false
				}
				if _, ok := base.entries[k]; !ok || local.CRC != p.CRC || !local.Stamp.Less(p.Stamp) {
					continue
				}
			} else if take, err := st.orders(p.Version, base, k); err != nil {
				ferr = err
				return nil, false
			} else if !take {
				continue
			} else {
				if entries == nil {
					entries = cloneEntries(base.entries)
				}
				if p.Tombstone {
					delete(entries, k)
				} else {
					cp := deepCopy(p.Entry)
					st.crcs.put(cp, p.CRC) // the CRC of the same JSON
					entries[k] = cp
				}
			}
			if p.Stamp != (Stamp{}) {
				if stamps == nil {
					stamps = maps.Clone(base.stamps)
				}
				stamps[k] = p.Stamp
			}
			taken = append(taken, k)
		}
		if len(taken) == 0 {
			return nil, false
		}
		if entries == nil {
			entries = base.entries
		}
		if stamps == nil {
			stamps = base.stamps
		}
		return newSnapshot(base.gen+1, entries, stamps, base), true
	})
	switch {
	case ferr != nil:
		return 0, nil, ferr
	case err != nil:
		return 0, nil, err
	case gen == 0:
		return st.Generation(), nil, nil
	}
	return gen, taken, nil
}

// appendKeyRecords logs keys' state in next as one batch frame at lsn, a
// record per key: a stamped put or delete for a stamped key (a stamp fold
// logs the unchanged entry beside its new stamp), a plain put or delete
// otherwise.
func appendKeyRecords(dst []byte, lsn uint64, next *Snapshot, keys []string) ([]byte, error) {
	var b []byte
	for _, k := range keys {
		s := next.stamps[k]
		e, ok := next.entries[k]
		switch {
		case ok:
			j, err := json.Marshal(e)
			if err != nil {
				return nil, err
			}
			if s == (Stamp{}) {
				b = appendBatchRecord(b, walFramePut, j)
			} else {
				b = appendBatchRecord(b, walFramePutStamped, append(appendStampHeader(nil, s, k), j...))
			}
		case s != (Stamp{}):
			b = appendBatchRecord(b, walFrameDeleteStamped, appendStampHeader(nil, s, k))
		default:
			b = appendBatchRecord(b, walFrameDelete, []byte(k))
		}
	}
	return appendRecord(dst, walFrameBatch, lsn, b), nil
}
