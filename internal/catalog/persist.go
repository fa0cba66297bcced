package catalog

// The checkpoint file format.
//
// On disk a catalog is the stats-package JSON document followed by one
// checksum trailer line:
//
//	{ "version": 1, "entries": [ ... ] }
//	#epfis-catalog v1 crc32c=xxxxxxxx bytes=NNN lsn=N
//
// The trailer pins the payload length and its CRC32-C, so truncation and
// bit rot are detected even when the damaged bytes still parse as JSON. The
// lsn field marks a checkpoint the store wrote and the log position it
// covers (see wal.go); a file without it was written outside the store.
// Files without a trailer (hand-edited, or written by `epfis gen` /
// stats.SaveFile) load on the JSON parser's own validation; json.Decoder
// reads exactly one value, so trailered files remain loadable by plain
// stats.LoadFile too — the formats are mutually compatible. Snapshot
// streams between cluster peers use the same format without the lsn field.
//
// A checkpoint is written to a temp file in the target directory and
// fsynced; the current file is retained as <path>.prev, the temp file is
// renamed into place, and the directory is fsynced.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strconv"
	"strings"

	"epfis/internal/faultfs"
	"epfis/internal/framelog"
	"epfis/internal/stats"
)

// ErrCorrupt is wrapped by load failures caused by a checksum mismatch, a
// truncated payload, a malformed trailer, or a log that does not continue
// its checkpoint.
var ErrCorrupt = errors.New("catalog: corrupt catalog file")

// trailerPrefix starts the checksum line; the v1 suffix versions the
// trailer format itself (the payload format is versioned inside the JSON).
const trailerPrefix = "#epfis-catalog v1 "

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PrevPath is the retained previous generation of a checkpoint or log path.
func PrevPath(path string) string { return path + ".prev" }

// withTrailer appends the checksum trailer to a catalog payload; extra
// carries further trailer fields (" lsn=N" for a checkpoint).
func withTrailer(payload []byte, extra string) []byte {
	return fmt.Appendf(payload, "%scrc32c=%08x bytes=%d%s\n", trailerPrefix, crc32.Checksum(payload, crcTable), len(payload), extra)
}

// verifyPayload validates the trailer (when present) and returns the JSON
// payload bytes plus the trailer's lsn field, if it has one. Legacy files
// without a trailer pass through whole.
func verifyPayload(data []byte) (payload []byte, lsn uint64, hasLSN bool, err error) {
	idx := bytes.LastIndex(data, []byte(trailerPrefix))
	if idx < 0 {
		return data, 0, false, nil // legacy file: JSON validation is the only guard
	}
	line := strings.TrimSuffix(string(data[idx+len(trailerPrefix):]), "\n")
	if strings.ContainsAny(line, "\n\r") {
		return nil, 0, false, fmt.Errorf("%w: data after checksum trailer", ErrCorrupt)
	}
	fields := strings.Split(line, " ")
	ok := len(fields) == 2 || len(fields) == 3
	var crc uint64
	var n int
	if ok {
		cv, errC := strconv.ParseUint(strings.TrimPrefix(fields[0], "crc32c="), 16, 32)
		bv, errB := strconv.Atoi(strings.TrimPrefix(fields[1], "bytes="))
		ok = errC == nil && errB == nil &&
			strings.HasPrefix(fields[0], "crc32c=") && strings.HasPrefix(fields[1], "bytes=")
		crc, n = cv, bv
		if ok && len(fields) == 3 {
			lv, errL := strconv.ParseUint(strings.TrimPrefix(fields[2], "lsn="), 10, 64)
			ok = errL == nil && strings.HasPrefix(fields[2], "lsn=")
			lsn, hasLSN = lv, true
		}
	}
	if !ok {
		return nil, 0, false, fmt.Errorf("%w: malformed checksum trailer %q", ErrCorrupt, line)
	}
	if n != idx {
		return nil, 0, false, fmt.Errorf("%w: payload is %d bytes, trailer pins %d (truncated or spliced)", ErrCorrupt, idx, n)
	}
	payload = data[:idx]
	if got := crc32.Checksum(payload, crcTable); uint64(got) != crc {
		return nil, 0, false, fmt.Errorf("%w: crc32c %08x, trailer pins %08x", ErrCorrupt, got, crc)
	}
	return payload, lsn, hasLSN, nil
}

// loadCheckpoint reads path through fsys, checks the trailer, and parses
// the payload as a stats catalog. hasLSN reports a checkpoint the store
// wrote, covering the log up to lsn.
func loadCheckpoint(fsys faultfs.FS, path string) (*stats.Catalog, uint64, bool, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	var c *stats.Catalog
	payload, lsn, hasLSN, err := verifyPayload(data)
	if err == nil {
		c, err = stats.Load(bytes.NewReader(payload))
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("%s: %w", path, err)
	}
	return c, lsn, hasLSN, nil
}

// writeCheckpoint persists the snapshot as the checkpoint covering the log
// up to lsn: temp file + fsync, retain the current file as .prev, rename
// into place, fsync the directory. Any failure leaves a loadable checkpoint
// at path or, after a crash between the renames, at .prev.
func writeCheckpoint(fsys faultfs.FS, path string, snap *Snapshot, lsn uint64) error {
	payload, err := snap.encode()
	if err != nil {
		return err
	}
	if err := framelog.Replace(fsys, path, withTrailer(payload, fmt.Sprintf(" lsn=%d", lsn)), PrevPath(path)); err != nil {
		return fmt.Errorf("catalog: checkpoint: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("catalog: checkpoint: sync dir: %w", err)
	}
	return nil
}
