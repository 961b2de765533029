package snapio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"altindex/internal/fsys"
)

func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.snap")
	payload := bytes.Repeat([]byte("altindex"), 10000)
	if err := WriteFile(path, writeBytes(payload)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	// The temp file must be gone after a successful write.
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left after success: %v", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.snap")
	if err := WriteFile(path, writeBytes(nil)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	payload := bytes.Repeat([]byte{7}, 4096)
	if err := WriteFile(path, writeBytes(payload)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"bitflip-body":   append([]byte{}, raw...),
		"bitflip-footer": append([]byte{}, raw...),
		"truncated-half": raw[:len(raw)/2],
		"truncated-1":    raw[:len(raw)-1],
		"tiny":           raw[:5],
		"empty":          {},
	}
	cases["bitflip-body"][100] ^= 1
	cases["bitflip-footer"][len(raw)-2] ^= 1
	for name, data := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestWriterErrorPropagates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.snap")
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("destination created despite writer error")
	}
}

var errCrash = errors.New("crash")

// failNth fails the nth call of op (from 1) through the file-system seam
// until the test ends or the returned func is called.
func failNth(t *testing.T, op fsys.Op, n int) (restore func()) {
	seen := 0
	restore = fsys.SetHook(func(c fsys.Call) error {
		if c.Op == op {
			if seen++; seen == n {
				return errCrash
			}
		}
		return nil
	})
	t.Cleanup(restore)
	return restore
}

// TestCrashAtEverySite fails each call of the write sequence that can
// fail after the temp file exists — the flush's write, the fsync, the
// rename — and checks the crash contract: the previous snapshot stays
// readable, the temp file (the crash residue) never shadows it, and a
// clean retry fully recovers.
func TestCrashAtEverySite(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   fsys.Op
	}{{"flush", fsys.OpWrite}, {"sync", fsys.OpSync}, {"rename", fsys.OpRename}} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.snap")
			v1 := []byte("version-1 payload")
			if err := WriteFile(path, writeBytes(v1)); err != nil {
				t.Fatal(err)
			}
			restore := failNth(t, tc.op, 1)
			v2 := bytes.Repeat([]byte("version-2"), 1000)
			err := WriteFile(path, writeBytes(v2))
			if !errors.Is(err, errCrash) {
				t.Fatalf("failed %s not surfaced: %v", tc.name, err)
			}
			// Crash residue: destination still the previous snapshot.
			got, err := ReadFile(path)
			if err != nil || !bytes.Equal(got, v1) {
				t.Fatalf("after crash: %q, %v — previous snapshot lost", got, err)
			}
			// The interrupted temp file is crash-equivalent: present and
			// (for pre-sync crashes) not a valid snapshot to ReadFile.
			if _, statErr := os.Stat(path + ".tmp"); statErr != nil {
				t.Fatalf("crash residue missing: %v", statErr)
			}
			restore()
			if err := WriteFile(path, writeBytes(v2)); err != nil {
				t.Fatal(err)
			}
			if got, err := ReadFile(path); err != nil || !bytes.Equal(got, v2) {
				t.Fatalf("retry after crash: %q, %v", got, err)
			}
		})
	}
}

// TestCrashResidueUnreadable: a crash before the footer leaves a temp file
// that, if ever read as a snapshot, fails verification rather than parsing
// as stale data.
func TestCrashResidueUnreadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.snap")
	// The payload is over one buffer, so it reaches the file in a first
	// write; the second, the footer's flush, fails.
	failNth(t, fsys.OpWrite, 2)
	payload := bytes.Repeat([]byte("p"), 1<<17)
	if err := WriteFile(path, writeBytes(payload)); !errors.Is(err, errCrash) {
		t.Fatalf("err = %v", err)
	}
	if fi, err := os.Stat(path + ".tmp"); err != nil || fi.Size() == 0 {
		t.Fatalf("expected partial temp residue, got %v", err)
	}
	if _, err := ReadFile(path + ".tmp"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partial residue read as valid: %v", err)
	}
}

func TestReadMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func ExampleWriteFile() {
	path := filepath.Join(os.TempDir(), "example.snap")
	_ = WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	})
	b, _ := ReadFile(path)
	fmt.Println(string(b))
	// Output: hello
}
