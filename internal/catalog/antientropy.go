package catalog

// Anti-entropy primitives for the cluster layer; the package comment
// describes how replicas converge through them.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"

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

// EpochBound is the first epoch a peer may not send. Every stamp and clock
// decoded from a peer's bytes must order below it: UnmarshalText refuses a
// stamp at or above it (digests, entry streams, pushes), and the cluster
// layer refuses a gossiped or digest epoch at or above it. So no peer
// message can exhaust a node's clock; local writes alone would need 2^63
// commits to reach the bound.
const EpochBound = 1 << 63

// UnmarshalText parses MarshalText's form. The epoch is digits, so the
// first "/" ends it whatever the origin holds. It refuses an epoch at or
// above EpochBound: stamps in text come from peers.
func (s *Stamp) UnmarshalText(b []byte) error {
	epoch, origin, ok := strings.Cut(string(b), "/")
	e, err := strconv.ParseUint(epoch, 10, 64)
	if !ok || err != nil {
		return fmt.Errorf("catalog: malformed stamp %q, want epoch/origin", b)
	}
	if e >= EpochBound {
		return fmt.Errorf("catalog: stamp %q: epoch at or above the peer bound 2^63", b)
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

// entryCRC is the CRC32-C of an entry's JSON encoding, which is
// deterministic, so nodes holding the same entry agree on it.
func entryCRC(e *stats.IndexStats) (uint32, error) {
	j, err := json.Marshal(e)
	if err != nil {
		return 0, err
	}
	return crc32.Checksum(j, crcTable), nil
}

// ordersAfter reports whether v orders after r's version. Only a stamp tie
// needs r's CRC, so only a tie computes it.
func (r *record) ordersAfter(v Version) (bool, error) {
	if _, held := r.held(); held != v.Stamp {
		return held.Less(v.Stamp), nil
	}
	local, err := r.version()
	return v.After(local), err
}

// Versions reports the version of every entry and every tombstone, read
// from one snapshot, and that snapshot's generation: each CRC and stamp
// describe the same content.
func (st *Store) Versions() (map[string]Version, uint64, error) {
	snap := st.Snapshot()
	out := make(map[string]Version, len(snap.recs))
	for k, r := range snap.recs {
		v, err := r.version()
		if err != nil {
			return nil, 0, err
		}
		out[k] = v
	}
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
		e, s := snap.recs[k].held()
		ok := e != nil
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
		changed := map[string]*record{}
		for _, k := range keys {
			p, held := in[k], base.recs[k]
			var e *stats.IndexStats
			if p.Entry == nil && !p.Tombstone {
				// A stamp fold: same content, later write.
				local, err := held.version()
				if err != nil {
					ferr = err
					return nil, false
				}
				if e, _ = held.held(); e == nil || local.CRC != p.CRC || !local.Stamp.Less(p.Stamp) {
					continue
				}
			} else if take, err := held.ordersAfter(p.Version); err != nil {
				ferr = err
				return nil, false
			} else if !take {
				continue
			} else if !p.Tombstone {
				e = deepCopy(p.Entry)
			}
			r := newRecord(e, p.Stamp, held)
			if p.Entry != nil && !p.Tombstone {
				r.crc.Store(knownCRC(p.CRC)) // DecodeEntries computed it from the same JSON
			}
			changed[k] = r
			taken = append(taken, k)
		}
		if len(taken) == 0 {
			return nil, false
		}
		return base.derive(changed), true
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
		e, s := next.recs[k].held()
		switch {
		case e != nil:
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
