package dlte_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoBlockOutsideSimnet keeps every world built by internal/, cmd/ and
// examples/ waiting only through the clock (Sleep, a Mailbox): with no
// goroutine inside Block the virtual clock knows quiescence exactly, so
// a Block here would bring back the settle heuristic for its whole
// world. simnet itself defines the bracket; bench/ joins worlds with it.
func TestNoBlockOutsideSimnet(t *testing.T) {
	banned := regexp.MustCompile(`\.(Block|Unblock)\(\)`)
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("internal", "simnet") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if loc := banned.FindIndex(src); loc != nil {
				line := 1 + strings.Count(string(src[:loc[0]]), "\n")
				t.Errorf("%s:%d calls %q: wait through Sleep or a simnet.Mailbox instead", path, line, src[loc[0]:loc[1]])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
