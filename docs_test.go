package altindex

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsResolve: the documents and the code point at each other by name,
// and every such name must still resolve. A "DESIGN.md §N" in a Go file
// must be the number of one of DESIGN.md's sections, every test or fuzz
// function named in DESIGN.md, EXPERIMENTS.md or README.md must be
// declared in some _test.go file of the repository, and every Test or Fuzz
// name in the CI workflow must begin the name of one: `go test -run X`
// passes silently when X matches nothing, and CI's -run patterns match by
// prefix.
func TestDocsResolve(t *testing.T) {
	sections := map[string]bool{}
	design := readDoc(t, "DESIGN.md")
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}
	cite := regexp.MustCompile(`DESIGN\.md §(\d+)`)
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)[A-Z]\w*)\(`)
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range cite.FindAllStringSubmatch(string(raw), -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which is no section of DESIGN.md", path, m[1])
			}
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range decl.FindAllStringSubmatch(string(raw), -1) {
				tests[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		for _, name := range named.FindAllString(readDoc(t, doc), -1) {
			if !tests[name] {
				t.Errorf("%s names %s, which no _test.go file declares", doc, name)
			}
		}
	}
	const ci = ".github/workflows/ci.yml"
	for _, name := range named.FindAllString(readDoc(t, ci), -1) {
		found := false
		for decl := range tests {
			found = found || strings.HasPrefix(decl, name)
		}
		if !found {
			t.Errorf("%s names %s, which begins no test or fuzz function a _test.go file declares", ci, name)
		}
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
