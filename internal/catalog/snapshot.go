package catalog

// Snapshot streaming hooks for the cluster layer.
//
// ExportSnapshot serializes the current snapshot in the exact trailered
// on-disk format (payload JSON + checksum trailer), so a peer pulling the
// stream gets end-to-end corruption detection for free: the same
// verifyPayload that guards recovery guards the network transfer.
// ImportSnapshot is the receiving side — verify, parse, validate, then
// commit through the normal commitReplace path, which recompiles estimators
// via core.Compile and persists through the store's (possibly
// fault-injected) filesystem.
//
// ContentHash gives both sides a cheap content-addressed identity for
// anti-entropy: it hashes the canonical JSON payload only (no trailer, no
// generation), so two stores holding identical statistics report identical
// hashes regardless of how many local generations each has been through.

import (
	"bytes"
	"fmt"
	"hash/crc32"

	"epfis/internal/stats"
)

// ExportSnapshot serializes the current snapshot in the trailered catalog
// format and reports the generation it captured. The bytes are safe to
// stream as-is; the embedded trailer lets the receiver verify integrity.
func (st *Store) ExportSnapshot() ([]byte, uint64, error) {
	snap := st.Snapshot()
	payload, err := encodeEntriesJSON(snap.entries)
	if err != nil {
		return nil, 0, err
	}
	return withTrailer(payload, ""), snap.gen, nil
}

// ImportSnapshot verifies a trailered catalog stream (as produced by
// ExportSnapshot), parses and validates the statistics, and swaps them in as
// a new generation — recompiling estimators through the usual core.Compile
// ingress path and persisting through the store's filesystem. Unlike file
// loading, a stream without a checksum trailer is rejected: network
// transfers get no legacy grace.
func (st *Store) ImportSnapshot(data []byte) (uint64, error) {
	if !bytes.Contains(data, []byte(trailerPrefix)) {
		return 0, fmt.Errorf("%w: snapshot stream has no checksum trailer", ErrCorrupt)
	}
	payload, _, _, err := verifyPayload(data)
	if err != nil {
		return 0, err
	}
	c, err := stats.Load(bytes.NewReader(payload))
	if err != nil {
		return 0, fmt.Errorf("catalog: import snapshot: %w", err)
	}
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

// MergeSnapshot is the partition-tolerant sibling of ImportSnapshot: it
// folds a verified snapshot stream into the current entry set as a UNION
// instead of a replacement. Stream entries win for every key the store
// holds no stamp for, and local-only keys are never deleted (see merge).
// With an empty local store it degenerates to a full adopt, which is the
// bootstrap/restart case.
func (st *Store) MergeSnapshot(data []byte) (uint64, error) {
	if !bytes.Contains(data, []byte(trailerPrefix)) {
		return 0, fmt.Errorf("%w: snapshot stream has no checksum trailer", ErrCorrupt)
	}
	payload, _, _, err := verifyPayload(data)
	if err != nil {
		return 0, err
	}
	c, err := stats.Load(bytes.NewReader(payload))
	if err != nil {
		return 0, fmt.Errorf("catalog: merge snapshot: %w", err)
	}
	incoming := map[string]*stats.IndexStats{}
	for _, k := range c.Keys() {
		e, err := c.Get(splitKey(k))
		if err != nil {
			return 0, err
		}
		incoming[k] = deepCopy(e)
	}
	return st.merge(incoming)
}

// merge commits incoming as a union over the entry set: incoming entries win
// for every key except those the stamp table names (keys a cluster mutation
// touched, deletes included, converge through replicated mutations rather
// than bulk anti-entropy), and local-only keys are never deleted —
// deletions propagate as explicit replicated mutations, not by absence from
// a peer's snapshot. The merged set and the skip set both come from the
// commit's own base, so a write that lands while the streams are being
// decoded is kept, never reverted. When every incoming key is skipped
// nothing is committed and the current generation is returned.
func (st *Store) merge(incoming map[string]*stats.IndexStats) (uint64, error) {
	gen, err := st.commit(replaceRecord, false, func(base *Snapshot) (*Snapshot, bool) {
		var next map[string]*stats.IndexStats
		for k, e := range incoming {
			if _, stamped := base.stamps[k]; stamped {
				continue
			}
			if next == nil {
				next = cloneEntries(base.entries)
			}
			next[k] = e
		}
		if next == nil {
			return nil, false
		}
		return newSnapshot(base.gen+1, next, base.stamps, base), true
	})
	if err != nil || gen != 0 {
		return gen, err
	}
	return st.Generation(), nil
}

// ContentHash reports the CRC32-C of the canonical JSON payload of the
// current snapshot (rendered "crc32c:xxxxxxxx") and the generation it was
// computed at. Identical statistics hash identically on every node.
func (st *Store) ContentHash() (string, uint64, error) {
	snap := st.Snapshot()
	c, err := snap.Catalog()
	if err != nil {
		return "", 0, err
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return "", 0, err
	}
	return fmt.Sprintf("crc32c:%08x", crc32.Checksum(buf.Bytes(), crcTable)), snap.gen, nil
}

// entryPayload renders the canonical single-entry catalog JSON for e. The
// rendering is deterministic (stats.Catalog.Save sorts keys and indents
// identically everywhere), so two nodes holding the same entry produce
// byte-identical payloads — which is what makes per-entry CRCs comparable
// across the wire.
func entryPayload(e *stats.IndexStats) ([]byte, error) {
	c := stats.NewCatalog()
	if err := c.Put(e); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ExportEntry serializes one entry as a trailered single-entry catalog
// stream — the same framing as ExportSnapshot, so the receiver gets the
// same end-to-end corruption detection on a delta fetch as on a full pull.
// Returns ErrNotFound (wrapped) when the key is absent.
func (st *Store) ExportEntry(key string) ([]byte, uint64, error) {
	snap := st.Snapshot()
	e, ok := snap.entries[key]
	if !ok {
		return nil, snap.gen, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	payload, err := entryPayload(e)
	if err != nil {
		return nil, 0, err
	}
	return withTrailer(payload, ""), snap.gen, nil
}

// EntryDigests reports, for every entry, the CRC32-C of its canonical
// single-entry payload (the exact bytes ExportEntry would frame), plus the
// generation the digests describe. Two nodes agree on a key's digest iff
// they hold byte-identical statistics for it, so a digest diff identifies
// precisely the divergent entries.
func (st *Store) EntryDigests() (map[string]uint32, uint64, error) {
	snap := st.Snapshot()
	out := make(map[string]uint32, len(snap.entries))
	for k, e := range snap.entries {
		p, err := entryPayload(e)
		if err != nil {
			return nil, 0, err
		}
		out[k] = crc32.Checksum(p, crcTable)
	}
	return out, snap.gen, nil
}

// MergeEntries folds verified trailered entry streams (as produced by
// ExportEntry) into the current entry set as a UNION, committing one
// generation for the whole batch, with MergeSnapshot's semantics. An empty
// batch (or one fully skipped) commits nothing and returns the current
// generation.
func (st *Store) MergeEntries(streams [][]byte) (uint64, error) {
	incoming := map[string]*stats.IndexStats{}
	for _, data := range streams {
		if !bytes.Contains(data, []byte(trailerPrefix)) {
			return 0, fmt.Errorf("%w: entry stream has no checksum trailer", ErrCorrupt)
		}
		payload, _, _, err := verifyPayload(data)
		if err != nil {
			return 0, err
		}
		c, err := stats.Load(bytes.NewReader(payload))
		if err != nil {
			return 0, fmt.Errorf("catalog: merge entries: %w", err)
		}
		for _, k := range c.Keys() {
			e, err := c.Get(splitKey(k))
			if err != nil {
				return 0, err
			}
			incoming[k] = deepCopy(e)
		}
	}
	return st.merge(incoming)
}
