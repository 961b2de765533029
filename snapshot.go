package altindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"altindex/internal/index"
	"altindex/internal/shard"
	"altindex/internal/snapio"
)

// Index snapshot formats, little-endian, framed by snapio's CRC32 footer
// and written via its temp-file + fsync + atomic-rename sequence.
//
// v1 — single-instance layout (written whenever the index has no shard
// boundaries, so unsharded snapshots are byte-identical to earlier
// releases):
//
//	magic "ALTIX001"
//	u64 pairCount
//	pairCount × (u64 key, u64 value), ascending by key
//
// v2 — sharded layout; identical pair payload with the shard boundaries
// prepended so Load can reproduce the partitioning exactly:
//
//	magic "ALTIX002"
//	u32 shardCount (2..64)
//	(shardCount-1) × u64 boundary key, non-decreasing
//	u64 pairCount
//	pairCount × (u64 key, u64 value), ascending by key
//
// Save requires the index to be quiescent for an exact snapshot (it is a
// checkpoint operation); Load bulkloads a fresh index from the file.

var (
	indexSnapMagic   = [8]byte{'A', 'L', 'T', 'I', 'X', '0', '0', '1'}
	indexSnapMagicV2 = [8]byte{'A', 'L', 'T', 'I', 'X', '0', '0', '2'}
)

// bounded is the surface a sharded index exposes for snapshotting: the
// boundary keys that define its partitioning.
type bounded interface{ Bounds() []uint64 }

// ErrBadSnapshot reports a corrupt, truncated or incompatible index
// snapshot file. Save's atomic write sequence guarantees a crash mid-save
// leaves either the previous complete snapshot or a file Load rejects with
// this error — never a torn or silently-stale one.
var ErrBadSnapshot = errors.New("altindex: bad snapshot")

// Save writes a point-in-time snapshot of idx to path, atomically: the
// previous snapshot at path survives any failure or crash mid-save.
// Sharded indexes persist their boundary keys (format v2); everything else
// writes the original v1 format byte-for-byte.
func Save(idx Index, path string) error {
	var bounds []uint64
	if b, ok := idx.(bounded); ok {
		bounds = b.Bounds()
	}
	return snapio.WriteFile(path, func(w io.Writer) error {
		count := uint64(idx.Len())
		if err := writeIndexHeader(w, bounds, count); err != nil {
			return err
		}
		var werr error
		written := uint64(index.Walk(idx, 0, ^uint64(0), math.MaxInt, func(k, v uint64) bool {
			var kv [16]byte
			binary.LittleEndian.PutUint64(kv[0:], k)
			binary.LittleEndian.PutUint64(kv[8:], v)
			_, werr = w.Write(kv[:])
			return werr == nil
		}))
		if werr != nil {
			return werr
		}
		if written != count {
			return fmt.Errorf("%w: index changed during save (%d pairs walked, Len %d)",
				ErrBadSnapshot, written, count)
		}
		return nil
	})
}

func writeIndexHeader(w io.Writer, bounds []uint64, count uint64) error {
	if len(bounds) == 0 {
		if _, err := w.Write(indexSnapMagic[:]); err != nil {
			return err
		}
		return binary.Write(w, binary.LittleEndian, count)
	}
	if _, err := w.Write(indexSnapMagicV2[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(bounds)+1)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, bounds); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, count)
}

// Load reads a snapshot written by Save into a fresh index built with
// opts. Corrupt or truncated files return an error wrapping ErrBadSnapshot.
//
// A sharded (v2) snapshot loaded into a sharded config (opts.Shards > 1)
// is restored with its exact saved boundaries — the saved layout wins
// over opts.Shards: the file may come from an index with a different
// shard count (or from an earlier build that reshaped layouts online),
// and restore reproduces the partitioning that was saved
// instead of re-quantiling it. Loading a sharded file into an
// unsharded config, or an unsharded file into any config, remaps by
// bulkloading the pairs into a fresh index built from opts. Data always
// round-trips; only the partitioning is recomputed when the layouts
// fundamentally disagree.
func Load(path string, opts Options) (Index, error) {
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
	var bounds []uint64
	switch magic {
	case indexSnapMagic:
	case indexSnapMagicV2:
		var shards uint32
		if err := binary.Read(r, binary.LittleEndian, &shards); err != nil {
			return nil, fmt.Errorf("%w: missing shard count", ErrBadSnapshot)
		}
		if shards < 2 || shards > shard.MaxShards {
			return nil, fmt.Errorf("%w: shard count %d out of range", ErrBadSnapshot, shards)
		}
		bounds = make([]uint64, shards-1)
		if err := binary.Read(r, binary.LittleEndian, bounds); err != nil {
			return nil, fmt.Errorf("%w: truncated shard boundaries", ErrBadSnapshot)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] {
				return nil, fmt.Errorf("%w: shard boundaries decrease", ErrBadSnapshot)
			}
		}
	default:
		return nil, fmt.Errorf("%w: magic mismatch", ErrBadSnapshot)
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
	var idx Index
	if len(bounds) > 0 && opts.Shards > 1 {
		// Sharded file into sharded config: pin the stored boundaries so
		// the restored partitioning is exact — even when the saved shard
		// count differs from opts.Shards.
		sh, err := shard.NewWithBounds(opts, bounds)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		idx = sh
	} else {
		idx = New(opts)
	}
	if err := idx.Bulkload(pairs); err != nil {
		return nil, err
	}
	return idx, nil
}
