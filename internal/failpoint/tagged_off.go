//go:build !failpoint

package failpoint

// Tagged reports whether the binary was built with -tags failpoint; see
// tagged_on.go.
const Tagged = false
