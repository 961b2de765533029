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
// WriteFile returns nil only once all five steps have: its caller may
// then depend on the new file surviving power loss. Every call that
// changes the disk goes through internal/fsys. On any failure WriteFile
// leaves the temp file behind, as a crash at that point would; a stale
// .tmp never shadows the real snapshot — readers only ever open the
// destination path.
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

	"altindex/internal/fsys"
)

// ErrCorrupt reports a snapshot file that is truncated, torn or bit-rotted
// (missing or mismatched CRC footer).
var ErrCorrupt = errors.New("snapio: corrupt or truncated snapshot file")

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
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	// On failure the temp file stays (see the package comment); only the
	// descriptor is cleaned up.
	bw := bufio.NewWriterSize(f, 1<<16)
	cw := &crcWriter{w: bw, h: crc32.NewIEEE()}
	err = write(cw)
	if err == nil {
		// Footer: payload length then CRC, both outside the checksummed span.
		var footer [12]byte
		binary.LittleEndian.PutUint64(footer[0:], uint64(cw.n))
		binary.LittleEndian.PutUint32(footer[8:], cw.h.Sum32())
		_, err = bw.Write(footer[:])
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncPath(filepath.Dir(path))
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
