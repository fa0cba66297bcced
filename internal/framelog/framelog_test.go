package framelog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"epfis/internal/faultfs"
)

// testBodies are frame bodies of mixed sizes, each byte distinct enough that
// a misplaced cut or a spliced frame cannot compare equal.
func testBodies(sizes ...int) [][]byte {
	out := make([][]byte, len(sizes))
	for i, n := range sizes {
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(i*31 + j*7 + 1)
		}
		out[i] = b
	}
	return out
}

func encode(bodies [][]byte) []byte {
	var out []byte
	for _, b := range bodies {
		out = AppendFrame(out, b)
	}
	return out
}

// replay opens the log at path through fsys and returns every accepted body
// (copied) with the open log.
func replay(t *testing.T, fsys faultfs.FS, path string) ([][]byte, *Log) {
	t.Helper()
	var got [][]byte
	l, err := Open(fsys, path, func(body []byte) bool {
		got = append(got, append([]byte(nil), body...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, l
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestOpenCutsEveryTornTail(t *testing.T) {
	// Cut a log of mixed-size frames at every byte. Open must keep exactly
	// the frames that are whole, truncate the file to them, and take an
	// append that survives a reopen.
	bodies := testBodies(1, 9, 2, 130, 17, 300, 4)
	full := encode(bodies)
	extra := []byte("appended after recovery")
	path := filepath.Join(t.TempDir(), "j.log")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole, end := 0, 0
		for whole < len(bodies) && end+headerSize+len(bodies[whole]) <= cut {
			end += headerSize + len(bodies[whole])
			whole++
		}
		got, l := replay(t, faultfs.OS(), path)
		if !equalBodies(got, bodies[:whole]) {
			t.Fatalf("cut %d: replayed %d frames, want the %d whole ones", cut, len(got), whole)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(end) {
			t.Fatalf("cut %d: file is %d bytes, want cut to %d", cut, fi.Size(), end)
		}
		if err := l.Append(AppendFrame(nil, extra)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		l.Close()
		got, l = replay(t, faultfs.OS(), path)
		l.Close()
		want := append(append([][]byte(nil), bodies[:whole]...), extra)
		if !equalBodies(got, want) {
			t.Fatalf("cut %d: reopened %d frames after append, want %d", cut, len(got), len(want))
		}
	}
}

func TestOpenMissingFileIsEmptyLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.log")
	got, l := replay(t, faultfs.OS(), path)
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d frames", len(got))
	}
	if err := l.Append(encode(testBodies(5, 6))); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got, l = replay(t, faultfs.OS(), path); !equalBodies(got, testBodies(5, 6)) {
		t.Fatalf("reopened %d frames, want 2", len(got))
	}
	l.Close()
}

func TestRewriteFaultLeavesOldOrNewLog(t *testing.T) {
	// A fault at any step of Rewrite must leave a log that reopens to the
	// old frames or the new frames in full, never a mix, and the log must
	// keep taking appends in whichever file won.
	oldBodies := testBodies(3, 40, 7)
	newBodies := testBodies(12, 1)
	extra := []byte("after the fault")
	for _, tc := range []struct {
		op      faultfs.Op
		renamed bool // the fault strikes after the rename
	}{
		{faultfs.OpCreate, false},
		{faultfs.OpWrite, false},
		{faultfs.OpSync, false},
		{faultfs.OpClose, false},
		{faultfs.OpRename, false},
		{faultfs.OpSyncDir, true},
		{faultfs.OpAppend, true},
	} {
		t.Run(string(tc.op), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.log")
			inj := faultfs.NewInjector(faultfs.OS(), 1)
			l, err := Open(inj, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := l.Append(encode(oldBodies)); err != nil {
				t.Fatal(err)
			}
			inj.Add(faultfs.Rule{Op: tc.op})
			if err := l.Rewrite(encode(newBodies), ""); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Rewrite under %s fault = %v, want ErrInjected", tc.op, err)
			}
			want := oldBodies
			if tc.renamed {
				want = newBodies
			}
			got, check := replay(t, faultfs.OS(), path)
			check.Close()
			if !equalBodies(got, want) {
				t.Fatalf("after %s fault: reopened %d frames, want %d (renamed=%v)", tc.op, len(got), len(want), tc.renamed)
			}

			if tc.op == faultfs.OpSyncDir {
				// The rename is not durable yet: an append must not be
				// acknowledged, nor written, until a directory fsync succeeds.
				inj.Add(faultfs.Rule{Op: faultfs.OpSyncDir})
				if err := l.Append(AppendFrame(nil, extra)); !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("Append before a durable rename = %v, want ErrInjected", err)
				}
				got, check := replay(t, faultfs.OS(), path)
				check.Close()
				if !equalBodies(got, want) {
					t.Fatal("unacknowledged append reached the log")
				}
			}
			if err := l.Append(AppendFrame(nil, extra)); err != nil {
				t.Fatalf("Append after %s fault: %v", tc.op, err)
			}
			if tc.renamed {
				trace := inj.Trace()
				lastSyncDir, lastWrite := -1, -1
				for i, e := range trace {
					switch {
					case strings.HasPrefix(e, "syncdir ") && !strings.HasSuffix(e, "!fault"):
						lastSyncDir = i
					case strings.HasPrefix(e, "write "):
						lastWrite = i
					}
				}
				if lastSyncDir < 0 || lastSyncDir > lastWrite {
					t.Fatalf("no successful directory fsync before the acknowledged append: %v", trace)
				}
			}
			got, check = replay(t, faultfs.OS(), path)
			check.Close()
			if !equalBodies(got, append(append([][]byte(nil), want...), extra)) {
				t.Fatalf("after %s fault: append went astray (%d frames on reopen)", tc.op, len(got))
			}
		})
	}
}

func TestRewriteKeepsOldLog(t *testing.T) {
	// With a keep path, Rewrite retains the old log there. A failed second
	// rename moves the old log back, still in use; when that fails too, no
	// append is taken until a Rewrite succeeds, so none lands in the kept
	// file where a reopen would not find it.
	oldBodies := testBodies(3, 40, 7)
	newBodies := testBodies(12, 1)
	extra := []byte("after the rewrite")
	for _, tc := range []struct {
		name   string
		faults int // consecutive renames failed from the second one on
		want   [][]byte
	}{
		{"ok", 0, newBodies},
		{"restored", 1, oldBodies},
		{"displaced", 2, newBodies},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.log")
			keep := path + ".prev"
			inj := faultfs.NewInjector(faultfs.OS(), 1)
			l, err := Open(inj, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := l.Append(encode(oldBodies)); err != nil {
				t.Fatal(err)
			}
			if tc.faults > 0 {
				inj.Add(faultfs.Rule{Op: faultfs.OpRename, Nth: 2, Count: tc.faults})
			}
			err = l.Rewrite(encode(newBodies), keep)
			if (err != nil) != (tc.faults > 0) {
				t.Fatalf("Rewrite = %v with %d rename faults", err, tc.faults)
			}
			if tc.faults == 2 {
				if err := l.Append(AppendFrame(nil, extra)); err == nil {
					t.Fatal("Append accepted while the log was moved aside")
				}
				if err := l.Rewrite(encode(newBodies), keep); err != nil {
					t.Fatalf("Rewrite after a displacing fault: %v", err)
				}
			}
			if err := l.Append(AppendFrame(nil, extra)); err != nil {
				t.Fatalf("Append: %v", err)
			}
			got, check := replay(t, faultfs.OS(), path)
			check.Close()
			if !equalBodies(got, append(append([][]byte(nil), tc.want...), extra)) {
				t.Fatalf("reopened %d frames, want %d plus the append", len(got), len(tc.want))
			}
			if tc.faults != 1 {
				kept, check := replay(t, faultfs.OS(), keep)
				check.Close()
				if !equalBodies(kept, oldBodies) {
					t.Fatalf("kept log has %d frames, want the old %d", len(kept), len(oldBodies))
				}
			}
		})
	}
}

func TestAppendFaultIsCutBeforeNextAppend(t *testing.T) {
	// A failed append may leave a partial frame on disk; it is never
	// acknowledged, and the next append cuts it before writing.
	bodies := testBodies(20, 5)
	extra := []byte("next")
	for _, tc := range []struct {
		name  string
		rules []faultfs.Rule // each fails one append, in order
	}{
		{"write-error", []faultfs.Rule{{Op: faultfs.OpWrite}}},
		{"write-partial", []faultfs.Rule{{Op: faultfs.OpWrite, Mode: faultfs.ModePartial}}},
		{"fsync-error", []faultfs.Rule{{Op: faultfs.OpSync}}},
		{"partial-then-cut-error", []faultfs.Rule{
			{Op: faultfs.OpWrite, Mode: faultfs.ModePartial}, {Op: faultfs.OpTruncate}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.log")
			inj := faultfs.NewInjector(faultfs.OS(), 1)
			l, err := Open(inj, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := l.Append(encode(bodies[:1])); err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.rules {
				inj.Add(r)
			}
			if err := l.Append(encode(bodies[1:])); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("faulted append = %v, want ErrInjected", err)
			}
			for range tc.rules[1:] {
				if err := l.Append(AppendFrame(nil, extra)); !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("append with a failing repair = %v, want ErrInjected", err)
				}
			}
			if err := l.Append(AppendFrame(nil, extra)); err != nil {
				t.Fatalf("append after fault: %v", err)
			}
			got, check := replay(t, faultfs.OS(), path)
			check.Close()
			if want := [][]byte{bodies[0], extra}; !equalBodies(got, want) {
				t.Fatalf("reopened %d frames, want the durable one plus the next append", len(got))
			}
		})
	}
}

func TestRemoveDeletesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	l, err := Open(faultfs.OS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(encode(testBodies(4))); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("log file still present after Remove: %v", err)
	}
}

// FuzzScan throws arbitrary bytes at the frame decoder: it must never panic,
// and the prefix it accepts must re-encode byte for byte through
// AppendFrame.
func FuzzScan(f *testing.F) {
	full := encode(testBodies(1, 9, 70, 3))
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add([]byte{})
	f.Add(make([]byte, 32)) // a zero-filled tail
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		var bodies [][]byte
		n := Scan(data, func(body []byte) bool {
			bodies = append(bodies, body)
			return true
		})
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("accepted prefix %d outside [0, %d]", n, len(data))
		}
		if re := encode(bodies); !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted prefix of %d bytes re-encodes to %d different bytes", n, len(re))
		}
		if m := Scan(data, nil); m != n {
			t.Fatalf("nil accept took %d bytes, accept-all took %d", m, n)
		}
	})
}
