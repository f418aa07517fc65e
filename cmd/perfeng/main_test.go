package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageListsEveryCommand: the usage text is generated from the
// command table, so every entry must appear in it.
func TestUsageListsEveryCommand(t *testing.T) {
	var buf bytes.Buffer
	writeUsage(&buf)
	for _, c := range commands {
		if !strings.Contains(buf.String(), "perfeng "+c.name+" "+c.args) {
			t.Errorf("usage lacks %q:\n%s", c.name, buf.String())
		}
	}
}

// TestDispatchUnknownCommand: an unknown subcommand prints the usage
// and exits 2 instead of falling through to the engagement.
func TestDispatchUnknownCommand(t *testing.T) {
	var buf bytes.Buffer
	if code := dispatch([]string{"nosuchcommand"}, &buf); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	if !strings.Contains(buf.String(), "nosuchcommand") || !strings.Contains(buf.String(), "usage: perfeng") {
		t.Fatalf("stderr lacks the error or the usage:\n%s", buf.String())
	}
}
