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
		forbid(t, root, filepath.Join("internal", "simnet"), banned, "wait through Sleep or a simnet.Mailbox instead")
	}
}

// TestEndpointsReceiveOnlyByHandler keeps MST, GTP and X2 on one
// receive path: every endpoint takes packets as delivery handlers on
// the network's dispatcher. A read-deadline poll is a reader goroutine
// spinning on the clock, and the GTP and X2 endpoints spawn no
// goroutines at all. (MST's retransmit loops and 0-RTT handshake wait
// are still goroutines.)
func TestEndpointsReceiveOnlyByHandler(t *testing.T) {
	poll := regexp.MustCompile(`SetReadDeadline\(`)
	spawn := regexp.MustCompile(`\.Go\(`)
	for _, pkg := range []string{"transport", "gtp", "x2"} {
		forbid(t, filepath.Join("internal", pkg), "", poll, "receive through SetHandler or OnDeliver instead")
	}
	for _, pkg := range []string{"gtp", "x2"} {
		forbid(t, filepath.Join("internal", pkg), "", spawn, "run the work inside the delivery handler instead")
	}
}

// forbid fails the test at the first match of banned in each non-test
// Go file under root, skipping the directory skip.
func forbid(t *testing.T, root, skip string, banned *regexp.Regexp, hint string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == skip {
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
			t.Errorf("%s:%d calls %q: %s", path, line, src[loc[0]:loc[1]], hint)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
