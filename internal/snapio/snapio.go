// Package snapio implements crash-safe snapshot file I/O, shared by the
// index snapshot (altindex.Save) and the altdb server's checkpoint files.
//
// Failure model: the process can die (kill -9, OOM, power) at any
// instruction. A reader must then observe either the previous complete
// snapshot or a detectably-bad file — never a torn or silently-stale one.
// WriteFile guarantees this with the classic sequence:
//
//  1. write the payload to <path>.tmp in the destination directory (same
//     filesystem, so the final rename is atomic),
//  2. append a CRC32 (IEEE) footer over the payload bytes,
//  3. fsync the temp file (data durable before it can be named),
//  4. rename over the destination (atomic on POSIX),
//  5. fsync the directory (the rename itself durable).
//
// On any failure WriteFile leaves the temp file behind on purpose: an
// injected failure is then byte-identical on disk to a real crash at that
// point, which is what the chaos suite relies on. A stale .tmp never
// shadows the real snapshot — readers only ever open the destination path.
//
// ReadFile verifies length and checksum before handing back the payload,
// so truncation and bit rot surface as ErrCorrupt instead of garbage.
package snapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"altindex/internal/failpoint"
)

// ErrCorrupt reports a snapshot file that is truncated, torn or bit-rotted
// (missing or mismatched CRC footer).
var ErrCorrupt = errors.New("snapio: corrupt or truncated snapshot file")

// Failpoint sites: each simulates a crash at one edge of the write
// sequence above. Armed with an error action they abort WriteFile exactly
// where a real crash would, leaving the same on-disk state.
var (
	fpFlush  = failpoint.New("snapio/flush")  // after payload, before footer+flush
	fpSync   = failpoint.New("snapio/sync")   // after flush, before fsync
	fpRename = failpoint.New("snapio/rename") // after fsync, before rename
)

// crcWriter tees writes into a running CRC32.
type crcWriter struct {
	w io.Writer
	h hash.Hash32
	n int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.h.Write(p[:n])
	c.n += int64(n)
	return n, err
}

// WriteFile atomically replaces path with the payload produced by write,
// framed with a CRC32 footer. See the package comment for the crash
// guarantees; on error the destination is untouched.
func WriteFile(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	// On failure the temp file is deliberately left in place (see the
	// package comment); only the descriptor is cleaned up.
	cw := &crcWriter{w: bufio.NewWriterSize(f, 1<<16), h: crc32.NewIEEE()}
	if err := write(cw); err != nil {
		f.Close()
		return err
	}
	if err := fpFlush.InjectErr(); err != nil {
		f.Close()
		return err
	}
	// Footer: payload length then CRC, both outside the checksummed span.
	var footer [12]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(cw.n))
	binary.LittleEndian.PutUint32(footer[8:], cw.h.Sum32())
	if _, err := cw.w.Write(footer[:]); err != nil {
		f.Close()
		return err
	}
	if err := cw.w.(*bufio.Writer).Flush(); err != nil {
		f.Close()
		return err
	}
	if err := fpSync.InjectErr(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fpRename.InjectErr(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	SyncDir(filepath.Dir(path))
	return nil
}

// SyncDir makes directory mutations durable: a completed rename here, a
// segment's create or delete in internal/wal. Best effort: some
// filesystems refuse fsync on directories, and by this point the file is
// already consistent (worst case the rename replays to the old name after
// power loss, which the failure model allows). Whether a dropped error
// should fail the caller is ROADMAP item 15's open question.
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// ReadFile reads path and verifies the CRC32 footer, returning the payload
// bytes. Truncated, torn or corrupt files return ErrCorrupt.
func ReadFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 12 {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the footer", ErrCorrupt, len(raw))
	}
	body := raw[:len(raw)-12]
	footer := raw[len(raw)-12:]
	if n := binary.LittleEndian.Uint64(footer[0:]); n != uint64(len(body)) {
		return nil, fmt.Errorf("%w: footer length %d, payload %d", ErrCorrupt, n, len(body))
	}
	if c := binary.LittleEndian.Uint32(footer[8:]); c != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return body, nil
}
