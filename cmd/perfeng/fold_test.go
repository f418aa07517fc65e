package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFoldedCommandGoldens: roofline and courseviz print, byte for byte,
// what the standalone binaries they replaced printed (testdata/).
func TestFoldedCommandGoldens(t *testing.T) {
	type golden struct {
		file string
		run  func(io.Writer, []string) error
		args []string
	}
	var cases []golden
	for _, a := range []string{"figure1", "table1", "table2a", "table2b", "figure2", "grades", "data", "lessons", "all"} {
		cases = append(cases,
			golden{"courseviz-" + a + ".txt", writeCourseviz, []string{"-artifact", a}},
			golden{"courseviz-" + a + "-markdown.txt", writeCourseviz, []string{"-artifact", a, "-markdown"}})
	}
	for _, m := range []string{"laptop", "das5", "das5gpu"} {
		cases = append(cases,
			golden{"roofline-" + m + ".txt", writeRoofline, []string{"-machine", m}},
			golden{"roofline-" + m + "-cache-aware.txt", writeRoofline, []string{"-machine", m, "-cache-aware"}})
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.run(&buf, c.args); err != nil {
				t.Fatal(err)
			}
			assertGolden(t, c.file, buf.Bytes())
		})
	}
}

// TestRooflineSVGGolden: -svg writes the same file the standalone
// roofline binary wrote.
func TestRooflineSVGGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "roofline.svg")
	if err := writeRoofline(io.Discard, []string{"-machine", "das5", "-svg", path}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "roofline-das5.svg", got)
}

// TestRooflineMachines: calibrate resolves through the engagement's
// machine switch, and an unknown machine or artifact is an error.
func TestRooflineMachines(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRoofline(&buf, []string{"-machine", "calibrate"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(calibrated)") {
		t.Errorf("calibrated roofline lacks the fitted model name:\n%s", buf.String())
	}
	if err := writeRoofline(io.Discard, []string{"-machine", "nosuch"}); err == nil {
		t.Error("roofline -machine nosuch: no error")
	}
	if err := writeCourseviz(io.Discard, []string{"-artifact", "nosuch"}); err == nil {
		t.Error("courseviz -artifact nosuch: no error")
	}
}

// TestMicrobenchSmoke: the battery measures, so only its shape is
// pinned: every section header is present.
func TestMicrobenchSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMicrobench(&buf, []string{"-quick", "-ilp"}); err != nil {
		t.Fatal(err)
	}
	for _, header := range []string{"peak FLOPs:", "ILP sweep (independent multiply-add chains):", "fitted model:"} {
		if !strings.Contains(buf.String(), header) {
			t.Errorf("output lacks %q:\n%s", header, buf.String())
		}
	}
}

func assertGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/%s\n--- got ---\n%s\n--- want ---\n%s", file, got, want)
	}
}
