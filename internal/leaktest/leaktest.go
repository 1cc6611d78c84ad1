// Package leaktest audits a test binary for leaked goroutines. The
// run-to-completion dispatch work (DESIGN.md §14) exists to keep
// goroutine counts flat, so the packages that own conn handlers wire
// their TestMain through Main: after the suite passes, every world a
// test built must have torn down to the goroutine population the
// binary started with — a reader loop that outlived its conn, or a
// service goroutine parked on a handler-fed queue whose EOF never
// came, fails the build with a full stack dump.
package leaktest

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main wraps m.Run with the audit. Call from TestMain:
//
//	func TestMain(m *testing.M) { leaktest.Main(m) }
func Main(m *testing.M) {
	// A fuzzing run is not audited: the coordinating process keeps
	// os/signal's delivery loop alive (signal.Notify), and no test can
	// stop it.
	flag.Parse()
	for _, name := range []string{"test.fuzz", "test.fuzzworker"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" && f.Value.String() != "false" {
			os.Exit(m.Run())
		}
	}
	// The baseline is taken before any test runs: the test main
	// goroutine plus whatever the runtime and testing machinery keep
	// alive for the duration of the binary.
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := settle(baseline, 5*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "leaktest: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// settle waits for the goroutine population to drain back to the
// baseline. Teardown is asynchronous (clock drains, timer callbacks,
// pool janitors), so the audit polls rather than snapshots; the
// deadline bounds a genuine leak, not a slow exit.
func settle(baseline int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Errorf("%d goroutines live after tests, baseline was %d:\n\n%s",
		runtime.NumGoroutine(), baseline, buf)
}
