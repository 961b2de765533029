package core

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
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
// also checks that faults taken in parallel still land on huge pages.
//
// The check runs in a fresh child process, the way an index is loaded at
// startup. Only memory no 4 KiB page has faulted into yet becomes a huge
// page on its first write, and in a test binary that has already built and
// dropped other indexes the slab may reuse such heap.
func TestBulkloadSlotsOnHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("kernel without transparent huge pages: %v", err)
	}
	if strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages disabled: %s", strings.TrimSpace(string(mode)))
	}
	const child = "CORE_HUGEPAGE_CHILD"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBulkloadSlotsOnHugePages$", "-test.v")
		cmd.Env = append(os.Environ(), child+"=1")
		out, err := cmd.CombinedOutput()
		t.Logf("child process:\n%s", out)
		if err != nil {
			t.Fatalf("child process: %v", err)
		}
		return
	}
	alt := mustBulk(t, Options{DisableRetraining: true}, dataset.Generate(dataset.OSM, 1000000, 1))
	sl := carvedExactly(t, alt)
	start := uintptr(unsafe.Pointer(&sl.blocks[0]))
	size := uintptr(len(sl.blocks)) * unsafe.Sizeof(slotBlock{})
	if size < 32<<20 {
		t.Fatalf("setup: a %d MB slab is too small to hold many huge pages", size>>20)
	}
	lo, hi := (start+hugePage-1)&^(hugePage-1), (start+size)&^(hugePage-1)
	huge := anonHugeBytes(t, lo, hi)
	t.Logf("THP %s; slab %d MB, AnonHugePages %d of its %d MB aligned interior",
		strings.TrimSpace(string(mode)), size>>20, huge>>20, (hi-lo)>>20)
	if huge < (hi-lo)/2 {
		t.Fatalf("AnonHugePages %d MB of a %d MB aligned interior, want at least half", huge>>20, (hi-lo)>>20)
	}
}

// anonHugeBytes sums /proc/self/smaps' AnonHugePages over the mappings
// that overlap [lo, hi), each capped at its overlap with the range.
func anonHugeBytes(t testing.TB, lo, hi uintptr) uintptr {
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
				if s, e := max(uintptr(s), lo), min(uintptr(e), hi); s < e {
					overlap = e - s
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
