package main

import (
	"bytes"
	"testing"
)

// TestRunDeterministic runs the example twice and requires
// byte-identical output: every figure it prints comes from the radio
// models, with no randomness or wall-clock input.
func TestRunDeterministic(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatal(err)
	}
	if err := run(&second); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 {
		t.Fatal("run printed nothing")
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("runs differ:\n--- first\n%s--- second\n%s", first.Bytes(), second.Bytes())
	}
}
