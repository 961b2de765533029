package server

// The crash-state enumerator, after ALICE (Pillai et al., "All File
// Systems Are Not Created Equal", OSDI 2014): a scripted workload runs the
// durable store with a recorder on the file-system seam (internal/fsys),
// so every call that changed the disk is in one trace, in order, with the
// workload's sends and acks between them. At every boundary between two
// calls the enumerator builds each image a crash there may leave —
//
//   - kill -9: every call made so far stays;
//   - power loss: data written since a file's last fsync is dropped, or
//     torn at a page boundary, one file at a time; a create, rename,
//     remove or mkdir not yet made durable by an fsync of its directory
//     is undone, one name at a time or two at a time; and everything
//     unsynced is lost at once —
//
// and recovers each one with planRecovery and apply. The script runs on
// one goroutine, so one rule judges every image: the recovered keyspace
// is the state after the first p sent batches, for some p from a lower
// bound to the number sent, and LEN counts the keys found. The lower
// bound is the number of batches acked, except for a power-loss image
// under SyncNone, whose bound is the number acked before the last
// checkpoint or open that returned.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"altindex"
	"altindex/internal/fsys"
	"altindex/internal/wal"
)

// pageSize is where an unsynced write may tear: the page cache writes
// back whole pages, in any order.
const pageSize = 4096

var errCrashed = errors.New("crashed")

// step is one entry of the trace: a call that changed the disk, or (when
// pairs is non-nil) a batch the workload sent, or the ack of the last one,
// or (mark) a checkpoint or open that returned.
type step struct {
	call      fsys.Call
	pairs     []altindex.KV // Value 0: a delete
	ack, mark bool
}

// recorder is the seam hook: it appends every call under root to the
// trace before the call is made. Once crashed it fails every call that
// changes the disk and records nothing, so the directory holds what a
// process killed at that point left.
type recorder struct {
	root           string
	mu             sync.Mutex
	trace          []step
	armed, crashed bool
	lastWrite      []byte // the data of the last call, if a write
}

func (r *recorder) hook(c fsys.Call) error {
	if c.Op == fsys.OpClose || !strings.HasPrefix(c.Path, r.root) {
		return nil // a close changes nothing on disk; other trees are not ours
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// An armed recorder crashes at the fsync that follows a record's
	// write, so the record is left in the page cache only.
	if r.armed && c.Op == fsys.OpSync && r.lastWrite != nil && !bytes.HasPrefix(r.lastWrite, []byte("ALTWAL01")) {
		r.crashed = true
	}
	if r.crashed {
		return errCrashed
	}
	c.Data = bytes.Clone(c.Data)
	r.lastWrite = nil
	if c.Op == fsys.OpWrite {
		r.lastWrite = c.Data
	}
	r.trace = append(r.trace, step{call: c})
	return nil
}

// arm crashes the process at the next record's fsync; restart lifts the
// crash for the next process.
func (r *recorder) arm() {
	r.mu.Lock()
	r.armed = true
	r.mu.Unlock()
}

func (r *recorder) restart() {
	r.mu.Lock()
	r.armed, r.crashed = false, false
	r.mu.Unlock()
}

func (r *recorder) note(s step) {
	r.mu.Lock()
	r.trace = append(r.trace, s)
	r.mu.Unlock()
}

// node is a file or directory of the modelled tree, as the calls left it
// and as its last fsync did.
type node struct {
	data, synced     []byte           // a file's bytes
	kids, syncedKids map[string]*node // a directory's entries (nil: a file)
}

func newDir() *node { return &node{kids: map[string]*node{}, syncedKids: map[string]*node{}} }

// model replays a trace's calls on a tree rooted at the recorded
// directory.
type model struct {
	rootPath string
	root     *node
}

func (m *model) parent(path string) (*node, string) {
	rel, err := filepath.Rel(m.rootPath, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		panic("call outside the recorded directory: " + path)
	}
	parts := strings.Split(rel, string(filepath.Separator))
	n := m.root
	for _, p := range parts[:len(parts)-1] {
		n = n.kids[p]
	}
	return n, parts[len(parts)-1]
}

func (m *model) lookup(path string) *node {
	if path == m.rootPath {
		return m.root
	}
	d, name := m.parent(path)
	return d.kids[name]
}

func (m *model) apply(c fsys.Call) {
	switch c.Op {
	case fsys.OpCreate:
		d, name := m.parent(c.Path)
		if f := d.kids[name]; f != nil {
			f.data = nil // O_TRUNC
		} else {
			d.kids[name] = &node{}
		}
	case fsys.OpWrite:
		f := m.lookup(c.Path)
		f.data = append(slices.Clip(f.data), c.Data...)
	case fsys.OpSync:
		if n := m.lookup(c.Path); n.kids != nil {
			n.syncedKids = maps.Clone(n.kids)
		} else {
			n.synced = n.data
		}
	case fsys.OpRename:
		d, name := m.parent(c.Path)
		f := d.kids[name]
		delete(d.kids, name)
		d2, name2 := m.parent(c.To)
		d2.kids[name2] = f
	case fsys.OpRemove:
		d, name := m.parent(c.Path)
		delete(d.kids, name)
	case fsys.OpMkdir:
		d, name := m.parent(c.Path)
		d.kids[name] = newDir()
	}
}

// image is one crash state: the entries each directory shows and the
// bytes each file holds.
type image struct {
	name    string
	entries func(d *node) map[string]*node
	bytes   func(f *node) []byte
}

func current(d *node) map[string]*node { return d.kids }
func written(f *node) []byte           { return f.data }

// nameChange is a directory entry whose create, rename, remove or mkdir
// no fsync of its directory has made durable yet.
type nameChange struct {
	dir        *node
	path, name string
}

// undo returns the entries each directory shows once the changes are
// undone: each changed name shows what its directory's last fsync left.
func undo(changes ...nameChange) func(d *node) map[string]*node {
	return func(d *node) map[string]*node {
		var e map[string]*node
		for _, c := range changes {
			if c.dir != d {
				continue
			}
			if e == nil {
				e = maps.Clone(d.kids)
			}
			if old := d.syncedKids[c.name]; old != nil {
				e[c.name] = old
			} else {
				delete(e, c.name)
			}
		}
		if e == nil {
			return d.kids
		}
		return e
	}
}

// images returns every crash state the tree allows at this boundary.
func (m *model) images() []image {
	out := []image{
		{"kill", current, written},
		{"power-loss", func(d *node) map[string]*node { return d.syncedKids }, func(f *node) []byte { return f.synced }},
	}
	var changes []nameChange
	var walk func(path string, d *node)
	walk = func(path string, d *node) {
		for _, name := range slices.Sorted(maps.Keys(d.kids)) {
			n := d.kids[name]
			if n.kids != nil {
				walk(path+"/"+name, n)
				continue
			}
			if bytes.Equal(n.data, n.synced) {
				continue
			}
			out = append(out, image{"drop " + path + "/" + name, current, func(f *node) []byte {
				if f == n {
					return f.synced
				}
				return f.data
			}})
			if tear := (len(n.synced)/pageSize + 1) * pageSize; bytes.HasPrefix(n.data, n.synced) && tear < len(n.data) {
				out = append(out, image{"tear " + path + "/" + name, current, func(f *node) []byte {
					if f == n {
						return f.data[:tear]
					}
					return f.data
				}})
			}
		}
		names := slices.Collect(maps.Keys(d.kids))
		for name := range d.syncedKids {
			if d.kids[name] == nil {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		for _, name := range names {
			if d.kids[name] != d.syncedKids[name] {
				changes = append(changes, nameChange{d, path + "/" + name, name})
			}
		}
	}
	walk("", m.root)
	for i, c := range changes {
		out = append(out, image{"undo " + c.path, undo(c), written})
		for _, c2 := range changes[i+1:] {
			out = append(out, image{"undo-pair " + c.path + " " + c2.path, undo(c, c2), written})
		}
	}
	return out
}

// visit calls fn on every file of img, by path relative to the root; a
// directory comes before what it holds, with nil bytes.
func (img image) visit(root *node, fn func(rel string, data []byte, dir bool) error) error {
	var walk func(rel string, d *node) error
	walk = func(rel string, d *node) error {
		e := img.entries(d)
		for _, name := range slices.Sorted(maps.Keys(e)) {
			n, p := e[name], filepath.Join(rel, name)
			if n.kids != nil {
				if err := fn(p, nil, true); err != nil {
					return err
				}
				if err := walk(p, n); err != nil {
					return err
				}
			} else if err := fn(p, img.bytes(n), false); err != nil {
				return err
			}
		}
		return nil
	}
	return walk("", root)
}

func (img image) digest(root *node) [32]byte {
	h := sha256.New()
	img.visit(root, func(rel string, data []byte, dir bool) error {
		fmt.Fprintf(h, "%s\x00%t\x00%d\x00", rel, dir, len(data))
		h.Write(data)
		return nil
	})
	return [32]byte(h.Sum(nil))
}

// materialize writes img into the empty directory dir.
func (img image) materialize(root *node, dir string) error {
	return img.visit(root, func(rel string, data []byte, isDir bool) error {
		if isDir {
			return os.Mkdir(filepath.Join(dir, rel), 0o755)
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
}

// history is what the workload sent and was acked: the keyspace after
// each prefix of the sent batches, how many were acked, and how many were
// acked before the last checkpoint or open that returned.
type history struct {
	states        []map[uint64]uint64 // states[p]: after the first p batches
	acked, marked int
}

func (h *history) apply(s step) {
	switch {
	case s.mark:
		h.marked = h.acked
	case s.ack:
		h.acked = len(h.states) - 1
	default:
		next := maps.Clone(h.states[len(h.states)-1])
		for _, p := range s.pairs {
			if p.Value == 0 {
				delete(next, p.Key)
			} else {
				next[p.Key] = p.Value
			}
		}
		h.states = append(h.states, next)
	}
}

// check holds a recovered keyspace to the prefix rule: it is the state
// after the first p sent batches for some p >= lo, and LEN counts it.
func (h *history) check(got map[uint64]uint64, length, lo int) error {
	if length != len(got) {
		return fmt.Errorf("census: LEN %d, %d keys found", length, len(got))
	}
	same := func(st map[uint64]uint64) bool { return maps.Equal(st, got) }
	if slices.ContainsFunc(h.states[lo:], same) {
		return nil
	}
	if p := slices.IndexFunc(h.states[:lo], same); p >= 0 {
		return fmt.Errorf("lost ack: recovered the state after %d batches, the first %d must survive", p, lo)
	}
	want := h.states[lo]
	for _, m := range []map[uint64]uint64{got, want} {
		for _, k := range slices.Sorted(maps.Keys(m)) {
			if got[k] != want[k] {
				return fmt.Errorf("no prefix of the %d sent batches from %d on: key %d holds %#x, the state after batch %d %#x",
					len(h.states)-1, lo, k, got[k], lo, want[k])
			}
		}
	}
	panic("unreachable: got equals the state after batch lo")
}

// recovered opens dir as a restarted altdb would, planRecovery then
// apply, and returns the keyspace it serves over keys and its LEN.
func recovered(dir string, keys []uint64) (map[uint64]uint64, int, error) {
	p, err := planRecovery(dir)
	if err != nil {
		return nil, 0, err
	}
	d, err := p.apply(Config{WALDir: dir, CheckpointInterval: -1}, wal.Options{})
	if err != nil {
		p.idx.Close()
		return nil, 0, err
	}
	defer d.idx.Close()
	defer d.log.Close()
	got := map[uint64]uint64{}
	for _, k := range keys {
		if v, ok := d.idx.Get(k); ok {
			got[k] = v
		}
	}
	return got, d.idx.Len(), nil
}

// crashWorkload drives three processes over dir with the recorder on the
// seam, the log under policy. The first writes SETs, MPUTs and DELs
// across rotations and checkpoints and crashes between a record's write
// and its fsync. The second recovers and shuts down, its final checkpoint
// truncating the log down to the segment its open rotated to. The third
// reopens, so its rotation truncates that emptied segment, writes,
// checkpoints and shuts down. Each open and checkpoint that returns is
// marked in the trace.
func crashWorkload(t *testing.T, dir string, rec *recorder, policy wal.SyncPolicy) {
	const segBytes = 5000
	open := func() *durableStore {
		d, err := openDurable(Config{WALDir: dir, CheckpointInterval: -1}, wal.Options{Sync: policy, SegmentBytes: segBytes})
		if err != nil {
			t.Fatal(err)
		}
		rec.note(step{mark: true})
		return d
	}
	checkpoint := func(d *durableStore) {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		rec.note(step{mark: true})
	}
	attempt := uint64(0)
	send := func(d *durableStore, pairs []altindex.KV) error {
		rec.note(step{pairs: pairs})
		var err error
		if len(pairs) == 1 && pairs[0].Value == 0 {
			_, err = d.Del(pairs[0].Key)
		} else {
			err = d.Mput(pairs)
		}
		if err == nil {
			rec.note(step{ack: true})
		}
		return err
	}
	set := func(k uint64) altindex.KV {
		attempt++
		return altindex.KV{Key: k, Value: k<<32 | attempt}
	}
	write := func(d *durableStore, round int) {
		k := uint64(round*7%64 + 1)
		mput := make([]altindex.KV, 0, 48)
		for i := range 48 {
			mput = append(mput, set(uint64((round*48+i)%192+1)))
		}
		for _, pairs := range [][]altindex.KV{{set(k)}, mput, {{Key: k + 3}}, {set(k + 1)}} {
			if err := send(d, pairs); err != nil {
				t.Fatal(err)
			}
		}
	}
	shutdown := func(d *durableStore) {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		rec.note(step{mark: true}) // Close checkpoints
		d.idx.Close()
	}

	d := open()
	for round := range 20 {
		write(d, round)
		// The second checkpoint truncates several segments at once.
		if round == 4 || round == 16 {
			checkpoint(d)
		}
	}
	// The crash: the next record's write lands, its fsync never comes.
	// (Under SyncNone, or a build that never fsyncs a record, the crash
	// comes at the next fsync instead: the close's checkpoint's.)
	rec.arm()
	send(d, []altindex.KV{set(9)})
	d.Close()
	d.idx.Close()
	if !rec.crashed {
		t.Fatal("the first process never crashed")
	}

	rec.restart()
	shutdown(open())

	d = open()
	for round := 20; round < 24; round++ {
		write(d, round)
	}
	checkpoint(d)
	write(d, 24)
	shutdown(d)
}

// TestCrashImages: under each sync policy, every crash image of the
// scripted workload opens without refusal and passes the prefix rule.
func TestCrashImages(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncNone} {
		t.Run(policy.String(), func(t *testing.T) { crashImages(t, policy) })
	}
}

func crashImages(t *testing.T, policy wal.SyncPolicy) {
	dir := t.TempDir()
	rec := &recorder{root: dir}
	restore := fsys.SetHook(rec.hook)
	t.Cleanup(restore)
	crashWorkload(t, dir, rec, policy)
	restore() // recovery below writes through the seam unrecorded

	log.SetOutput(io.Discard) // one event=recovered line per image
	defer log.SetOutput(os.Stderr)
	scratch := t.TempDir()
	var keys []uint64
	for k := uint64(1); k <= 256; k++ {
		keys = append(keys, k)
	}
	type result struct {
		got    map[uint64]uint64
		length int
		err    error
	}
	seen := map[[32]byte]result{}
	m := &model{rootPath: dir, root: newDir()}
	h := &history{states: []map[uint64]uint64{{}}}
	opNames := [...]string{"create", "write", "sync", "close", "rename", "remove", "mkdir"}
	kinds := map[string]int{}
	calls, images := 0, 0
	for i := 0; i < len(rec.trace); {
		c := rec.trace[i].call
		m.apply(c)
		calls++
		// The disk stays as this call left it until the next one, so
		// each image here must also hold every ack noted before it.
		for i++; i < len(rec.trace) && rec.trace[i].call.Path == ""; i++ {
			h.apply(rec.trace[i])
		}
		for _, img := range m.images() {
			kind := strings.Fields(img.name)[0]
			kinds[kind]++
			sum := img.digest(m.root)
			r, ok := seen[sum]
			if !ok {
				images++
				sub := filepath.Join(scratch, fmt.Sprint(images))
				if err := os.Mkdir(sub, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := img.materialize(m.root, sub); err != nil {
					t.Fatal(err)
				}
				r.got, r.length, r.err = recovered(sub, keys)
				if err := os.RemoveAll(sub); err != nil {
					t.Fatal(err)
				}
				seen[sum] = r
			}
			lo := h.acked
			if policy == wal.SyncNone && kind != "kill" {
				lo = h.marked
			}
			if r.err == nil {
				r.err = h.check(r.got, r.length, lo)
			}
			if r.err != nil {
				t.Fatalf("after call %d (%s %s), image %q: %v", calls, opNames[c.Op], c.Path, img.name, r.err)
			}
		}
	}
	t.Logf("%s: %d calls, %d batches sent; images by kind %v, %d distinct", policy, calls, len(h.states)-1, kinds, images)
}
