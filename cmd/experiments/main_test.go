package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// TestDocumentedSelectionsExist scans the repository's documents for every
// -fig X and -table X, where X may list alternatives as a|b, and checks
// each X against the artifacts table, so that a documented command cannot
// name a figure or table the command rejects.
func TestDocumentedSelectionsExist(t *testing.T) {
	sel := regexp.MustCompile("-(fig|table)[ =]([A-Za-z0-9_|]+)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for i, line := range strings.Split(readFile(t, "..", "..", doc), "\n") {
			for _, m := range sel.FindAllStringSubmatch(line, -1) {
				fig := m[1] == "fig"
				for _, x := range strings.Split(m[2], "|") {
					if !slices.Contains(names(fig), x) {
						t.Errorf("%s:%d: -%s %s is not one of %v", doc, i+1, m[1], x, names(fig))
					}
				}
			}
		}
	}
}
