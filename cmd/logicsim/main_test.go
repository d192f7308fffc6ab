package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden runs the command in-process for each built-in circuit and
// compares its exit status, stdout and stderr with testdata/<case>.golden,
// a record of the form "exit N", "-- stdout --", stdout, "-- stderr --",
// stderr.
func TestGolden(t *testing.T) {
	for _, c := range []struct{ name, args string }{
		{"adder", "-circuit adder"},
		{"johnson", "-circuit johnson"},
		{"lfsr", "-circuit lfsr"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(append([]string{"logicsim"}, strings.Fields(c.args)...), &stdout, &stderr)
			got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, &stdout, &stderr)
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("logicsim %s:\n got:\n%s\nwant:\n%s", c.args, got, want)
			}
		})
	}
}
