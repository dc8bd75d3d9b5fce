package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := New("demo", "name", "mfu", "mem")
	t.Add("baseline", 46.16, "14.86")
	t.Add("vocab-2", 50.23, "14.83")
	return t
}

func TestStringAlignment(t *testing.T) {
	out := sample().String()
	if !strings.Contains(out, "## demo") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, blank, header, separator, two rows.
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[4], "46.16") {
		t.Fatalf("float not formatted to 2 decimals: %q", lines[4])
	}
	// Columns aligned: header and rows share the separator's width.
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("header/separator width mismatch")
	}
}

func TestNoTitle(t *testing.T) {
	tbl := New("", "a")
	tbl.Add(1)
	if strings.Contains(tbl.String(), "##") {
		t.Fatalf("unexpected title rendered")
	}
}

func TestHelpers(t *testing.T) {
	if Pct(0.123) != "12.3%" {
		t.Fatalf("Pct = %q", Pct(0.123))
	}
	if GB(float64(3<<30)) != "3.00" {
		t.Fatalf("GB = %q", GB(float64(3<<30)))
	}
	if PaperVs(1.5, 2.5) != "1.50 (paper 2.50)" {
		t.Fatalf("PaperVs = %q", PaperVs(1.5, 2.5))
	}
	if PaperVs(1.5, -1) != "1.50 (paper -)" {
		t.Fatalf("PaperVs OOM = %q", PaperVs(1.5, -1))
	}
}

func TestAddIntFormatting(t *testing.T) {
	tbl := New("", "n")
	tbl.Add(42)
	if !strings.Contains(tbl.String(), "42") {
		t.Fatalf("int not rendered")
	}
}
