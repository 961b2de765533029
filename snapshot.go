package altindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"altindex/internal/index"
	"altindex/internal/snapio"
)

// Index snapshot format, little-endian, framed by snapio's CRC32 footer
// and written via its temp-file + fsync + atomic-rename sequence. It is
// the one layout Save writes and Load reads, for every index, sharded or
// not:
//
//	magic "ALTIX001"
//	u64 pairCount
//	pairCount × (u64 key, u64 value), ascending by key
//
// A file with any other magic is refused, naming the magic it carries —
// including the sharded layout earlier builds wrote, whose boundaries this
// build does not read.
//
// Save may run beside writers; Load bulkloads a fresh index from the file.

var indexSnapMagic = [8]byte{'A', 'L', 'T', 'I', 'X', '0', '0', '1'}

// ErrBadSnapshot reports a corrupt, truncated or incompatible index
// snapshot file. Save's atomic write sequence guarantees a crash mid-save
// leaves either the previous complete snapshot or a file Load rejects with
// this error — never a torn or silently-stale one.
var ErrBadSnapshot = errors.New("altindex: bad snapshot")

// Save writes a snapshot of idx to path, atomically: the previous
// snapshot at path survives any failure or crash mid-save. The file is
// ALTIX001 for every layout: the same pairs give the same bytes.
//
// Writers may keep running. Save walks idx into a buffer of the file's own
// size (16 B per pair) before it opens the file, so the header's count is
// exact. A key no writer touches during the walk is saved as it stands; a
// key written meanwhile is saved in one of the states it held during the
// walk, absence included.
func Save(idx Index, path string) error {
	pairs := make([]byte, 0, 16*idx.Len())
	var prev uint64
	ordered := true
	index.Walk(idx, 0, ^uint64(0), math.MaxInt, func(k, v uint64) bool {
		if len(pairs) > 0 && k <= prev {
			// A scan is strictly ascending (indextest.CheckScans); a file
			// that breaks it would be refused by Load, so none is written.
			ordered = false
			return false
		}
		prev = k
		pairs = binary.LittleEndian.AppendUint64(pairs, k)
		pairs = binary.LittleEndian.AppendUint64(pairs, v)
		return true
	})
	if !ordered {
		return fmt.Errorf("%w: index walk not ascending at key %d", ErrBadSnapshot, prev)
	}
	return snapio.WriteFile(path, func(w io.Writer) error {
		hdr := binary.LittleEndian.AppendUint64(indexSnapMagic[:], uint64(len(pairs)/16))
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		_, err := w.Write(pairs)
		return err
	})
}

// Load reads a snapshot written by Save into a fresh index built with
// opts. Corrupt, truncated or foreign files return an error wrapping
// ErrBadSnapshot.
//
// Load bulkloads the file's pairs into New(opts), so opts alone decides
// the layout. Options that Validate refuses return its error before the
// file is read.
func Load(path string, opts Options) (Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	payload, err := snapio.ReadFile(path)
	if err != nil {
		if errors.Is(err, snapio.ErrCorrupt) {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		return nil, err
	}
	r := bytes.NewReader(payload)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header", ErrBadSnapshot)
	}
	if magic != indexSnapMagic {
		return nil, fmt.Errorf("%w: magic %q, this build reads only %q", ErrBadSnapshot, magic[:], indexSnapMagic[:])
	}
	var count uint64
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: missing pair count", ErrBadSnapshot)
	}
	if count != uint64(r.Len())/16 || uint64(r.Len())%16 != 0 {
		return nil, fmt.Errorf("%w: %d pairs declared, payload holds %d bytes",
			ErrBadSnapshot, count, r.Len())
	}
	pairs := make([]index.KV, count)
	var prev uint64
	for i := range pairs {
		var kv [16]byte
		if _, err := io.ReadFull(r, kv[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated pair %d", ErrBadSnapshot, i)
		}
		k := binary.LittleEndian.Uint64(kv[0:])
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("%w: pairs out of order", ErrBadSnapshot)
		}
		prev = k
		pairs[i] = index.KV{Key: k, Value: binary.LittleEndian.Uint64(kv[8:])}
	}
	idx := New(opts)
	if err := idx.Bulkload(pairs); err != nil {
		return nil, err
	}
	return idx, nil
}
