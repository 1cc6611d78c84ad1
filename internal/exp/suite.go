package exp

import (
	"fmt"
	"io"
)

// Experiment is one entry of the suite: its ID, the paper artifact it
// reproduces, and its entry point.
type Experiment struct {
	ID, Title string
	Run       func(Options) error
}

// run adapts a RunE* entry point to Experiment.Run.
func run[R any](f func(Options) (R, error)) func(Options) error {
	return func(o Options) error { _, err := f(o); return err }
}

// Suite lists every experiment in report order: the order dlte-sim
// prints them in, and the order of the committed golden report.
var Suite = []Experiment{
	{"E1", "Table 1: design space", run(RunE1)},
	{"E2", "Figure 1: data path", run(RunE2)},
	{"E2b", "§3.1: user-plane saturation", run(RunE2b)},
	{"E3", "§4.1: core scaling", run(RunE3)},
	{"E4", "§4.2: mobility", run(RunE4)},
	{"E5", "§4.3: spectrum modes", run(RunE5)},
	{"E6", "§3.2: waveform & bands", run(RunE6)},
	{"E7", "§4.3: X2 overhead", run(RunE7)},
	{"E8", "§5: town deployment", run(RunE8)},
	{"E9", "§4.3/§7: hidden terminals & relay", run(RunE9)},
	{"E10", "§4.3: discovery at scale", run(RunE10)},
	{"E11", "§4.2 at scale: compiled mobility scenarios", run(RunE11)},
	{"E12", "§4.3: spectrum-coexistence frontier", run(RunE12)},
	{"E13", "§6: million-UE attach-and-idle world", run(RunE13)},
}

// WriteHeader writes the section header that precedes e's tables in
// the report.
func (e Experiment) WriteHeader(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", e.ID, e.Title)
}
