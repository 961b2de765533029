// Package fsys is the one seam through which the persistence code changes
// the disk. internal/wal, internal/snapio (and through it altindex.Save)
// and altdb's durable store create, write, sync, close, rename and remove
// files, and make and sync directories, only through it; reads stay on os.
// Each call is the os call it names.
//
// Tests see every call through SetHook: the crash-state enumerator in
// internal/server records them to build each image a crash can leave, and
// the fault tests fail or stall one. Production never sets the hook, so a
// call costs one atomic load besides its system call.
package fsys

import (
	"os"
	"path/filepath"
	"sync/atomic"
)

// Op names a call.
type Op uint8

const (
	OpCreate Op = iota // open a file for writing, creating it or truncating it to empty
	OpWrite
	OpSync // fsync a file, or a directory's creates, renames and removes
	OpClose
	OpRename
	OpRemove
	OpMkdir
)

// Call is one call as the hook sees it, before it is made: Path names the
// file or directory, To a rename's target and Data a write's bytes.
type Call struct {
	Op       Op
	Path, To string
	Data     []byte
}

var hook atomic.Pointer[func(Call) error]

// SetHook makes h see every call before it is made; an error from h fails
// the call without making it. The returned func removes h. Only tests set
// a hook.
func SetHook(h func(Call) error) (restore func()) {
	hook.Store(&h)
	return func() { hook.Store(nil) }
}

// do makes the call c with fn unless the hook fails it.
func do(c Call, fn func() error) error {
	if h := hook.Load(); h != nil {
		if err := (*h)(c); err != nil {
			return err
		}
	}
	return fn()
}

// File is a file open for writing.
type File struct {
	f    *os.File
	path string
}

// Create opens path for writing, creating it or truncating it to empty.
func Create(path string) (*File, error) {
	var f *os.File
	err := do(Call{Op: OpCreate, Path: path}, func() (err error) {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &File{f: f, path: path}, nil
}

func (f *File) Write(p []byte) (n int, err error) {
	err = do(Call{Op: OpWrite, Path: f.path, Data: p}, func() error { n, err = f.f.Write(p); return err })
	return n, err
}

// Sync makes the file's data durable.
func (f *File) Sync() error  { return do(Call{Op: OpSync, Path: f.path}, f.f.Sync) }
func (f *File) Close() error { return do(Call{Op: OpClose, Path: f.path}, f.f.Close) }

// Rename moves from to to, replacing what to named.
func Rename(from, to string) error {
	return do(Call{Op: OpRename, Path: from, To: to}, func() error { return os.Rename(from, to) })
}

// Remove removes the file path.
func Remove(path string) error {
	return do(Call{Op: OpRemove, Path: path}, func() error { return os.Remove(path) })
}

// SyncPath fsyncs the file or directory path. For a directory that makes
// the creates, renames and removes made in it durable.
func SyncPath(path string) error {
	return do(Call{Op: OpSync, Path: path}, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// MkdirAll makes dir and each missing parent, syncing the directory that
// holds each one it makes: a new directory's entry is durable before
// anything in it can be.
func MkdirAll(dir string) error {
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return nil
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		if err := MkdirAll(parent); err != nil {
			return err
		}
	}
	if err := do(Call{Op: OpMkdir, Path: dir}, func() error { return os.Mkdir(dir, 0o755) }); err != nil {
		return err
	}
	return SyncPath(parent)
}
