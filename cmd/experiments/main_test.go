package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden runs the command in-process per case and compares its exit
// status, stdout and stderr with testdata/<case>.golden, a record of the
// form "exit N", "-- stdout --", stdout, "-- stderr --", stderr. $TMP in
// the arguments and the record stands for a scratch directory; a CSV the
// case writes there is compared with testdata/<case>.csv.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name, args string
		csv        bool
	}{
		{name: "des", args: "-table des"},
		{name: "rt", args: "-table rt"},
		{name: "fig2-quick", args: "-fig 2 -quick -csv $TMP/fig2.csv", csv: true},
		{name: "treeheuristic-quick", args: "-table treeheuristic -quick"},
		{name: "bad-table", args: "-table bogus"},
		{name: "bad-fig", args: "-fig 3"},
		{name: "csv-without-fig2", args: "-csv x.csv"},
		{name: "no-selection"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tmp := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := strings.Fields(strings.ReplaceAll(c.args, "$TMP", tmp))
			code := run(append([]string{"experiments"}, args...), &stdout, &stderr)
			got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, &stdout, &stderr)
			if got = strings.ReplaceAll(got, tmp, "$TMP"); got != readFile(t, "testdata", c.name+".golden") {
				t.Errorf("experiments %s:\n got:\n%s\nwant:\n%s", c.args, got, readFile(t, "testdata", c.name+".golden"))
			}
			if c.csv && readFile(t, tmp, "fig2.csv") != readFile(t, "testdata", c.name+".csv") {
				t.Errorf("experiments %s: fig2.csv differs from testdata/%s.csv", c.args, c.name)
			}
		})
	}
}

func readFile(t *testing.T, elem ...string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(elem...))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
