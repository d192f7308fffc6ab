package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("name", "n", "value")
	tab.AddRow("alpha", 10, 3.14159)
	tab.AddRow("beta-long-name", 2000, 1e6)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[1], "---") {
		t.Errorf("header/separator malformed:\n%s", out)
	}
	if !strings.Contains(lines[2], "3.142") {
		t.Errorf("float formatting wrong: %s", lines[2])
	}
	if !strings.Contains(lines[3], "1000000") {
		t.Errorf("integral float formatting wrong: %s", lines[3])
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf,
		[]string{"a", "b"},
		[][]string{{"1", "hello, world"}, {"2", `say "hi"`}})
	if err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	want := "a,b\n1,\"hello, world\"\n2,\"say \"\"hi\"\"\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	if formatFloat(2) != "2" || formatFloat(2.5) != "2.500" || formatFloat(1234.56) != "1234.6" {
		t.Errorf("formatFloat: %q %q %q", formatFloat(2), formatFloat(2.5), formatFloat(1234.56))
	}
	if formatFloat(math.Inf(1)) == "" {
		t.Error("inf should format to something")
	}
}
