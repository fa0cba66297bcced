// Package framelog is the framed append-only log behind every durable
// journal: the catalog WAL, and the stamp journal an older release kept,
// which is read once on import. It owns the frame
// format and every open, truncate, fsync and rename those journals perform;
// each owner keeps only its record rules, expressed as the accept function
// it passes to Scan and Open.
//
// Frame format (integers little-endian):
//
//	[len u32][crc u32][body]
//
// len is the body's byte length and crc is CRC32-C over the body. A frame
// whose length or checksum does not hold marks a torn or corrupt tail:
// everything before it is the log's content, everything from it on is cut.
//
// A Log is not safe for concurrent use; its owner serializes access.
package framelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"

	"epfis/internal/faultfs"
)

// headerSize is the framed byte count before a frame's body.
const headerSize = 8

// maxBody bounds a frame's declared length so a corrupt length field cannot
// drive a giant allocation during replay.
const maxBody = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Reserve appends a blank frame header to dst. Append the body after it,
// then call Seal on the frame: a large body is framed without a copy.
func Reserve(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Seal fills in the header of frame, a header from Reserve followed by the
// whole body.
func Seal(frame []byte) {
	body := frame[headerSize:]
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, crcTable))
}

// AppendFrame appends one frame carrying body to dst.
func AppendFrame(dst, body []byte) []byte {
	at := len(dst)
	dst = append(Reserve(dst), body...)
	Seal(dst[at:])
	return dst
}

// Scan hands the body of each frame at the head of data to accept, stopping
// at the first torn or corrupt frame or the first body accept refuses. It
// returns the byte length of the accepted prefix. A nil accept takes every
// intact frame. Bodies alias data.
func Scan(data []byte, accept func(body []byte) bool) int64 {
	off := 0
	for len(data)-off >= headerSize {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		// No writer emits an empty body, and refusing one keeps a
		// zero-filled tail from reading as a run of valid frames.
		if n == 0 || n > maxBody || n > int64(len(data)-off-headerSize) {
			break
		}
		body := data[off+headerSize : off+headerSize+int(n)]
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		if accept != nil && !accept(body) {
			break
		}
		off += headerSize + int(n)
	}
	return int64(off)
}

// Log is one journal file open for append.
type Log struct {
	fs   faultfs.FS
	path string
	f    faultfs.File // nil until (re)opened
	size int64        // durable byte length

	// torn records that a failed append may have left bytes past size;
	// they are cut before the next write.
	torn bool
	// dirSync records that the file's directory entry (a fresh create or a
	// rename) is not yet durable. Until a directory fsync succeeds, no
	// append is acknowledged.
	dirSync bool
	// displaced records a Rewrite that moved the file to its keep path and
	// could not move it back: appends through the open handle would land in
	// the kept file, so none is taken until a Rewrite succeeds.
	displaced bool
}

// Open replays the log at path through accept (see Scan), cuts the file
// after the last accepted frame, and opens it for append. A missing file is
// an empty log, created here; the first Append makes its directory entry
// durable.
func Open(fsys faultfs.FS, path string, accept func(body []byte) bool) (*Log, error) {
	data, err := fsys.ReadFile(path)
	missing := errors.Is(err, fs.ErrNotExist)
	if err != nil && !missing {
		return nil, fmt.Errorf("framelog: read %s: %w", path, err)
	}
	l := &Log{fs: fsys, path: path, size: Scan(data, accept), dirSync: missing}
	l.torn = l.size < int64(len(data))
	if err := l.reopen(); err != nil {
		return nil, err
	}
	return l, nil
}

// reopen cuts bytes past the durable length and opens the append handle if
// it is not open.
func (l *Log) reopen() error {
	if l.displaced {
		return fmt.Errorf("framelog: %s was moved aside by a failed rewrite", l.path)
	}
	if l.torn {
		if err := l.fs.Truncate(l.path, l.size); err != nil {
			return fmt.Errorf("framelog: cut torn tail of %s: %w", l.path, err)
		}
		l.torn = false
	}
	if l.f == nil {
		f, err := l.fs.OpenAppend(l.path)
		if err != nil {
			return fmt.Errorf("framelog: open %s: %w", l.path, err)
		}
		l.f = f
	}
	return nil
}

// syncDir makes the file's directory entry durable.
func (l *Log) syncDir() error {
	if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
		return fmt.Errorf("framelog: sync dir of %s: %w", l.path, err)
	}
	l.dirSync = false
	return nil
}

// Append writes frames (one or more whole frames) with one write and one
// fsync. When it returns nil the frames are durable. After a failure the
// log stays usable: the next Append first truncates back to the durable
// length, and retries a pending directory fsync.
func (l *Log) Append(frames []byte) error {
	if err := l.reopen(); err != nil {
		return err
	}
	if l.dirSync {
		if err := l.syncDir(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(frames); err != nil {
		l.torn = true
		return fmt.Errorf("framelog: append %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		l.torn = true
		return fmt.Errorf("framelog: fsync %s: %w", l.path, err)
	}
	l.size += int64(len(frames))
	return nil
}

// Rewrite atomically replaces the log's content with frames: temp file,
// fsync, rename, directory fsync. With keep set, the old log is retained
// there (see Replace). A failure before the rename leaves the old log in
// place and in use. Once the rename succeeds the log is the new file, even
// when a later step fails; Append then retries the directory fsync before
// it acknowledges anything.
func (l *Log) Rewrite(frames []byte, keep string) error {
	if err := Replace(l.fs, l.path, frames, keep); err != nil {
		if errors.Is(err, errDisplaced) {
			l.Close()
			l.displaced = true
		}
		return fmt.Errorf("framelog: rewrite %s: %w", l.path, err)
	}
	// The old handle points at the unlinked (or kept) file; every append
	// must go to the new one from here on.
	l.Close()
	l.size, l.torn, l.dirSync, l.displaced = int64(len(frames)), false, true, false
	if err := l.syncDir(); err != nil {
		return err
	}
	return l.reopen()
}

// Close releases the append handle. A later Append reopens it.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Remove closes the log and deletes its file.
func (l *Log) Remove() error {
	l.Close()
	return l.fs.Remove(l.path)
}

// errDisplaced marks a Replace that moved path to keep, failed to rename
// the new file into place, and failed to move the old one back.
var errDisplaced = errors.New("file left at its keep path")

// Replace writes data to a temp file beside path, fsyncs it, and renames it
// over path. With keep set, the current file is first renamed to keep, so a
// crash between the two renames leaves it there for recovery; when the
// second rename fails, the file is moved back. Any failure leaves path as
// it was, unless moving it back fails too (an error wrapping errDisplaced).
// Replace does not fsync the directory: the caller does, once it has acted
// on the rename.
func Replace(fsys faultfs.FS, path string, data []byte, keep string) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer fsys.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	// fsync before rename: the rename must never publish bytes that are
	// still only in the page cache.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	kept := false
	if keep != "" {
		err := fsys.Rename(path, keep)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("retain previous generation: %w", err)
		}
		kept = err == nil
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		if kept {
			if rerr := fsys.Rename(keep, path); rerr != nil {
				return fmt.Errorf("%w: %w (moving it back: %v)", errDisplaced, err, rerr)
			}
		}
		return err
	}
	return nil
}
