package dlte_test

import (
	"bytes"
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
		forbid(t, root, filepath.Join("internal", "simnet"), banned, nil, "wait through Sleep or a simnet.Mailbox instead")
	}
}

// TestSleepOnlyPaces keeps Sleep for modeling time that passes, never
// for waiting on a state change: a Sleep-poll loop reads its result off
// the poll grid, where VirtualClock.WaitUntil resumes at the instant
// the state changed. Outside simnet a Sleep is allowed only at these
// pacing sites, each keyed by file and source line.
func TestSleepOnlyPaces(t *testing.T) {
	banned := regexp.MustCompile(`\.Sleep\(`)
	allow := map[string]int{
		"internal/exp/e7.go: clk.Sleep(period)":                           1, // E7's update period
		"internal/exp/e10.go: clk.Sleep(d)":                               1, // sleepUntil, E10's join and dial stagger
		"internal/leaktest/leaktest.go: time.Sleep(2 * time.Millisecond)": 1, // wall-clock goroutine settle after the tests
	}
	for _, root := range []string{"internal", "cmd", "examples"} {
		forbid(t, root, filepath.Join("internal", "simnet"), banned, allow, "wait with VirtualClock.WaitUntil or a simnet.Mailbox instead")
	}
	for site, n := range allow {
		if n != 0 {
			t.Errorf("allowed pacing site %q is gone (%d unmatched); drop it from the list", site, n)
		}
	}
}

// TestEndpointsReceiveOnlyByHandler keeps MST, GTP and X2 on one
// receive path: every endpoint takes packets as delivery handlers on
// the network's dispatcher. A read-deadline poll is a reader goroutine
// spinning on the clock. And no service spawns a goroutine: MST, GTP,
// X2 and the registry run every timer and session as a continuation or
// a delivery handler, so no service goroutine ever parks.
func TestEndpointsReceiveOnlyByHandler(t *testing.T) {
	poll := regexp.MustCompile(`SetReadDeadline\(`)
	spawn := regexp.MustCompile(`\.Go\(`)
	for _, pkg := range []string{"transport", "gtp", "x2"} {
		forbid(t, filepath.Join("internal", pkg), "", poll, nil, "receive through SetHandler or OnDeliver instead")
	}
	for _, pkg := range []string{"transport", "registry", "gtp", "x2"} {
		forbid(t, filepath.Join("internal", pkg), "", spawn, nil, "run the work inside the delivery handler instead")
	}
}

// forbid fails the test at each match of banned in the non-test Go
// files under root, skipping the directory skip. A match whose
// "path: trimmed source line" key has a count left in allow is
// permitted and uses up one count.
func forbid(t *testing.T, root, skip string, banned *regexp.Regexp, allow map[string]int, hint string) {
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
		for _, loc := range banned.FindAllIndex(src, -1) {
			start := bytes.LastIndexByte(src[:loc[0]], '\n') + 1
			end := len(src)
			if i := bytes.IndexByte(src[loc[0]:], '\n'); i >= 0 {
				end = loc[0] + i
			}
			key := filepath.ToSlash(path) + ": " + strings.TrimSpace(string(src[start:end]))
			if allow[key] > 0 {
				allow[key]--
				continue
			}
			line := 1 + bytes.Count(src[:loc[0]], []byte("\n"))
			t.Errorf("%s:%d calls %q: %s", path, line, src[loc[0]:loc[1]], hint)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
