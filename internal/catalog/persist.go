package catalog

// Crash-safe persistence for the catalog file.
//
// On disk a catalog is the stats-package JSON document followed by one
// checksum trailer line:
//
//	{ "version": 1, "entries": [ ... ] }
//	#epfis-catalog v1 crc32c=xxxxxxxx bytes=NNN
//
// The trailer pins the payload length and its CRC32-C, so truncation and
// bit rot are detected even when the damaged bytes still parse as JSON.
// Files without a trailer (hand-edited, or written by `epfis gen` /
// stats.SaveFile) load as legacy files on the JSON parser's own validation;
// json.Decoder reads exactly one value, so trailered files remain loadable
// by plain stats.LoadFile too — the formats are mutually compatible.
//
// Writes follow the full crash-safety sequence: serialize to a temp file in
// the target directory, fsync it, retain the previous generation as
// <path>.prev, rename the temp file into place, and fsync the directory.
// Recovery (Open) falls back to the .prev generation when the main file is
// corrupt, truncated, or lost mid-rename.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"epfis/internal/faultfs"
	"epfis/internal/framelog"
	"epfis/internal/stats"
)

// ErrCorrupt is wrapped by load failures caused by a checksum mismatch, a
// truncated payload, or a malformed trailer.
var ErrCorrupt = errors.New("catalog: corrupt catalog file")

// trailerPrefix starts the checksum line; the v1 suffix versions the
// trailer format itself (the payload format is versioned inside the JSON).
const trailerPrefix = "#epfis-catalog v1 "

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PrevPath is the retained previous-generation backup for a catalog path.
func PrevPath(path string) string { return path + ".prev" }

// encodeSnapshot serializes a snapshot to the trailered on-disk format.
func encodeSnapshot(snap *Snapshot) ([]byte, error) {
	return encodeSnapshotLSN(snap, 0, false)
}

// encodeSnapshotLSN is encodeSnapshot with an optional lsn trailer field —
// the WAL checkpoint form, pinning the log position the snapshot covers so
// recovery replays only the frames past it. Legacy writes omit the field and
// the formats stay mutually loadable.
func encodeSnapshotLSN(snap *Snapshot, lsn uint64, withLSN bool) ([]byte, error) {
	c, err := snap.Catalog()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return nil, err
	}
	payload := buf.Len()
	crc := crc32.Checksum(buf.Bytes()[:payload], crcTable)
	if withLSN {
		fmt.Fprintf(&buf, "%scrc32c=%08x bytes=%d lsn=%d\n", trailerPrefix, crc, payload, lsn)
	} else {
		fmt.Fprintf(&buf, "%scrc32c=%08x bytes=%d\n", trailerPrefix, crc, payload)
	}
	return buf.Bytes(), nil
}

// verifyPayload validates the trailer (when present) and returns the JSON
// payload bytes plus the trailer's WAL position (0 when absent — pre-WAL
// files cover no log). Legacy files without a trailer pass through whole.
func verifyPayload(data []byte) ([]byte, uint64, error) {
	idx := bytes.LastIndex(data, []byte(trailerPrefix))
	if idx < 0 {
		return data, 0, nil // legacy file: JSON validation is the only guard
	}
	line := strings.TrimSuffix(string(data[idx+len(trailerPrefix):]), "\n")
	if strings.ContainsAny(line, "\n\r") {
		return nil, 0, fmt.Errorf("%w: data after checksum trailer", ErrCorrupt)
	}
	fields := strings.Split(line, " ")
	ok := len(fields) == 2 || len(fields) == 3
	var crc uint64
	var n int
	var lsn uint64
	if ok {
		cv, errC := strconv.ParseUint(strings.TrimPrefix(fields[0], "crc32c="), 16, 32)
		bv, errB := strconv.Atoi(strings.TrimPrefix(fields[1], "bytes="))
		ok = errC == nil && errB == nil &&
			strings.HasPrefix(fields[0], "crc32c=") && strings.HasPrefix(fields[1], "bytes=")
		crc, n = cv, bv
		if ok && len(fields) == 3 {
			lv, errL := strconv.ParseUint(strings.TrimPrefix(fields[2], "lsn="), 10, 64)
			ok = errL == nil && strings.HasPrefix(fields[2], "lsn=")
			lsn = lv
		}
	}
	if !ok {
		return nil, 0, fmt.Errorf("%w: malformed checksum trailer %q", ErrCorrupt, line)
	}
	if n != idx {
		return nil, 0, fmt.Errorf("%w: payload is %d bytes, trailer pins %d (truncated or spliced)", ErrCorrupt, idx, n)
	}
	payload := data[:idx]
	if got := crc32.Checksum(payload, crcTable); uint64(got) != crc {
		return nil, 0, fmt.Errorf("%w: crc32c %08x, trailer pins %08x", ErrCorrupt, got, crc)
	}
	return payload, lsn, nil
}

// loadVerified reads path through fsys, checks the trailer, and parses the
// payload as a stats catalog.
func loadVerified(fsys faultfs.FS, path string) (*stats.Catalog, error) {
	c, _, err := loadVerifiedLSN(fsys, path)
	return c, err
}

// loadVerifiedLSN is loadVerified plus the trailer's WAL position.
func loadVerifiedLSN(fsys faultfs.FS, path string) (*stats.Catalog, uint64, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	payload, lsn, err := verifyPayload(data)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	c, err := stats.Load(bytes.NewReader(payload))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return c, lsn, nil
}

// loadWithRecovery loads the catalog at path, falling back to the retained
// previous generation when the main file is corrupt, truncated, or missing
// after a crashed write. It returns (nil, false, nil) when neither file
// exists (a fresh store), and the main file's error when no fallback can
// serve.
func loadWithRecovery(fsys faultfs.FS, path string) (c *stats.Catalog, recovered bool, err error) {
	c, _, recovered, err = loadWithRecoveryLSN(fsys, path)
	return c, recovered, err
}

// loadWithRecoveryLSN is loadWithRecovery plus the served file's WAL position.
func loadWithRecoveryLSN(fsys faultfs.FS, path string) (c *stats.Catalog, lsn uint64, recovered bool, err error) {
	c, lsn, mainErr := loadVerifiedLSN(fsys, path)
	if mainErr == nil {
		return c, lsn, false, nil
	}
	// Corrupt, truncated, or missing after a crashed write: adopt the
	// retained previous generation when it verifies.
	prev, prevLSN, prevErr := loadVerifiedLSN(fsys, PrevPath(path))
	if prevErr == nil {
		return prev, prevLSN, true, nil
	}
	if errors.Is(mainErr, os.ErrNotExist) && errors.Is(prevErr, os.ErrNotExist) {
		return nil, 0, false, nil
	}
	return nil, 0, false, mainErr
}

// writeAtomicFS persists the snapshot crash-safely: temp file + fsync,
// retain the previous generation as .prev, rename into place, fsync the
// directory. Any failure leaves the previous on-disk generation loadable
// (directly or via .prev recovery).
func writeAtomicFS(fsys faultfs.FS, path string, snap *Snapshot) error {
	return writeAtomicLSN(fsys, path, snap, 0, false)
}

// writeAtomicLSN is writeAtomicFS with the WAL-position trailer field — the
// checkpoint writer.
func writeAtomicLSN(fsys faultfs.FS, path string, snap *Snapshot, lsn uint64, withLSN bool) error {
	data, err := encodeSnapshotLSN(snap, lsn, withLSN)
	if err != nil {
		return err
	}
	if err := framelog.Replace(fsys, path, data, PrevPath(path)); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("catalog: sync dir: %w", err)
	}
	return nil
}
