package core

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"

	"altindex/internal/dataset"
)

// TestBulkloadSlotsOnHugePages checks that the kernel backs a Bulkload
// slab with transparent huge pages: at least half of the slab's 2 MiB-
// aligned interior must show as AnonHugePages in /proc/self/smaps. It skips
// when THP is off; under "madvise" it is adviseHuge that puts the slab
// there, since the Go runtime advises no heap memory. Bulkload's fill
// takes the slab's first-touch faults from GOMAXPROCS goroutines, so this
// also checks that faults taken in parallel still land on huge pages. The
// check runs in a fresh child process (inFreshChild).
func TestBulkloadSlotsOnHugePages(t *testing.T) {
	mode := inFreshChild(t, "TestBulkloadSlotsOnHugePages")
	if mode == "" {
		return
	}
	alt := mustBulk(t, Options{DisableRetraining: true}, dataset.Generate(dataset.OSM, 1000000, 1))
	sl := carvedExactly(t, alt)
	size := uintptr(len(sl.blocks)) * unsafe.Sizeof(slotBlock{})
	if size < 32<<20 {
		t.Fatalf("setup: a %d MB slab is too small to hold many huge pages", size>>20)
	}
	in := interior(sl.blocks)
	huge := anonHugeBytes(t, []span{in})
	t.Logf("THP %s; slab %d MB, AnonHugePages %d of its %d MB aligned interior",
		mode, size>>20, huge>>20, (in.hi-in.lo)>>20)
	if huge < (in.hi-in.lo)/2 {
		t.Fatalf("AnonHugePages %d MB of a %d MB aligned interior, want at least half", huge>>20, (in.hi-in.lo)>>20)
	}
}

// TestBulkloadTreeOnHugePages checks Bulkload's MADV_COLLAPSE pass over the
// ART layer: the 2 MiB pages that hold the tree's nodes (treeSpans) must
// show as AnonHugePages for at least half of their bytes. Nothing advises
// the heap the nodes are allocated from, so without the pass they stay on
// 4 KiB pages under THP "madvise". It runs in a fresh child process like
// TestBulkloadSlotsOnHugePages. When the pages are not huge it calls
// MADV_COLLAPSE on the runs itself and decides by the errno: EINVAL (a
// kernel before Linux 6.1) skips; so do EAGAIN and ENOMEM, since then the
// kernel had no free huge page (fragmented host memory, a memcg limit),
// which the pass, best effort by design, cannot change either; success
// fails the test, for then the kernel could collapse what the pass did
// not, and any other errno fails it with that errno.
func TestBulkloadTreeOnHugePages(t *testing.T) {
	mode := inFreshChild(t, "TestBulkloadTreeOnHugePages")
	if mode == "" {
		return
	}
	alt := mustBulk(t, Options{DisableRetraining: true}, dataset.Generate(dataset.OSM, 1000000, 1))
	tree := alt.tree.MemoryUsage()
	if tree < 2*hugePage {
		t.Fatalf("setup: a %d KB tree is too small to hold many huge pages", tree>>10)
	}
	runs := treeSpans(alt.tree)
	if len(runs) == 0 {
		t.Fatalf("no runs for a %d KB tree", tree>>10)
	}
	var bytes uintptr
	for _, r := range runs {
		bytes += r.hi - r.lo
	}
	huge := anonHugeBytes(t, runs)
	t.Logf("THP %s; tree %d KB in %d runs of %d MB, AnonHugePages %d MB of them",
		mode, tree>>10, len(runs), bytes>>20, huge>>20)
	if huge < bytes/2 {
		// Asked only now, since the probe itself collapses what it is given.
		var errno syscall.Errno
		for _, r := range runs {
			if _, _, e := syscall.Syscall(syscall.SYS_MADVISE, r.lo, r.hi-r.lo, madvCollapse); e != 0 {
				errno = e
				break
			}
		}
		switch errno {
		case syscall.EINVAL:
			t.Skip("the kernel has no MADV_COLLAPSE (EINVAL)")
		case syscall.EAGAIN, syscall.ENOMEM:
			t.Skipf("the kernel found no free huge pages to collapse into (%s): AnonHugePages %d MB of the tree's %d MB",
				errno, huge>>20, bytes>>20)
		case 0:
			t.Fatalf("AnonHugePages %d MB of the tree's %d MB of 2 MiB pages, want at least half; "+
				"a second MADV_COLLAPSE of the runs succeeds, so Bulkload's pass did not collapse them", huge>>20, bytes>>20)
		}
		t.Fatalf("AnonHugePages %d MB of the tree's %d MB of 2 MiB pages, want at least half; MADV_COLLAPSE: %s",
			huge>>20, bytes>>20, errno)
	}
}

// inFreshChild runs the test named name again in a fresh child process and
// returns "" in the parent; in the child it returns the THP mode. It skips
// when THP is off. A huge page check needs a fresh process, the way an
// index is loaded at startup: only memory no 4 KiB page has faulted into
// yet becomes a huge page on its first write, and in a test binary that
// has already built and dropped other indexes a Bulkload may reuse such
// heap.
func inFreshChild(t *testing.T, name string) (mode string) {
	t.Helper()
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("kernel without transparent huge pages: %v", err)
	}
	mode = strings.TrimSpace(string(b))
	if strings.Contains(mode, "[never]") {
		t.Skipf("transparent huge pages disabled: %s", mode)
	}
	const child = "CORE_HUGEPAGE_CHILD"
	if os.Getenv(child) != "" {
		return mode
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.v")
	cmd.Env = append(os.Environ(), child+"=1")
	out, err := cmd.CombinedOutput()
	t.Logf("child process:\n%s", out)
	if err != nil {
		t.Fatalf("child process: %v", err)
	}
	if strings.Contains(string(out), "--- SKIP") {
		t.Skip("skipped in the child process")
	}
	return ""
}

// anonHugeBytes sums /proc/self/smaps' AnonHugePages over the mappings
// that overlap the sorted, disjoint runs, each capped at its overlap with
// them.
func anonHugeBytes(t testing.TB, runs []span) uintptr {
	t.Helper()
	smaps, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	var total, overlap uintptr
	for _, line := range strings.Split(string(smaps), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if a, b, ok := strings.Cut(f[0], "-"); ok {
			// A mapping header: "start-end perms offset dev inode [path]".
			s, err1 := strconv.ParseUint(a, 16, 64)
			e, err2 := strconv.ParseUint(b, 16, 64)
			if err1 == nil && err2 == nil {
				overlap = 0
				for _, r := range runs {
					if s, e := max(uintptr(s), r.lo), min(uintptr(e), r.hi); s < e {
						overlap += e - s
					}
				}
				continue
			}
		}
		if f[0] == "AnonHugePages:" && overlap > 0 {
			kb, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				t.Fatalf("smaps: %q: %v", line, err)
			}
			total += min(uintptr(kb)<<10, overlap)
		}
	}
	return total
}
