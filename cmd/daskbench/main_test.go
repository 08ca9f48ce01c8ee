package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmallZFP runs a 256x256 array in 64x64 chunks over four ranks
// with ZFP: the flags parse (the rank count and the codec-pool size are
// distinct flags) and the report names every metric.
func TestRunSmallZFP(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-ranks", "4", "-dim", "256", "-chunk", "64", "-codec", "zfp", "-rate", "8", "-workers", "2"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"4 ranks, 256x256 array, 64x64 chunks", "Execution time", "Aggregate throughput", "Compression ratio", "Max abs error vs exact"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsBadFlags checks a malformed invocation is an error, not
// a panic.
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-ranks", "x"}, &out); err == nil {
		t.Error("run accepted -ranks x")
	}
	if err := run([]string{"-codec", "bogus"}, &out); err == nil {
		t.Error("run accepted -codec bogus")
	}
}
