//go:build failpoint

package failpoint

// Tagged reports whether the binary was built with -tags failpoint, the
// build chaos suites run under. Packages gate invariant checks too costly
// for production paths on it; being a constant, the untagged build
// compiles them away.
const Tagged = true
