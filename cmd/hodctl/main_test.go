package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadColumnPlain(t *testing.T) {
	path := writeTemp(t, "1.5\n2.5\n3.5\n")
	vals, err := readColumn(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[2] != 3.5 {
		t.Fatalf("vals=%v", vals)
	}
}

func TestReadColumnSkipsHeader(t *testing.T) {
	path := writeTemp(t, "value\n1\n2\n")
	vals, err := readColumn(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("vals=%v", vals)
	}
}

func TestReadColumnSelectsColumn(t *testing.T) {
	path := writeTemp(t, "a,b\n1,10\n2,20\n")
	vals, err := readColumn(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[1] != 20 {
		t.Fatalf("vals=%v", vals)
	}
}

func TestReadColumnErrors(t *testing.T) {
	if _, err := readColumn("/no/such/file.csv", 0); err == nil {
		t.Fatal("want error for missing file")
	}
	path := writeTemp(t, "h\n")
	if _, err := readColumn(path, 0); err == nil {
		t.Fatal("want error for no numeric data")
	}
	path = writeTemp(t, "1\n")
	if _, err := readColumn(path, 5); err == nil {
		t.Fatal("want error for out-of-range column")
	}
	path = writeTemp(t, "1\nx\n")
	if _, err := readColumn(path, 0); err == nil {
		t.Fatal("want error for bad value past header")
	}
}

func TestCmdListRuns(t *testing.T) {
	if err := cmdList(); err != nil {
		t.Fatal(err)
	}
}

// captureFlagOut redirects usage text and flag diagnostics into a
// buffer for the duration of one test.
func captureFlagOut(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old := flagOut
	flagOut = &buf
	t.Cleanup(func() { flagOut = old })
	return &buf
}

// TestSubcommandHelpAudit pins the CLI contract for every subcommand:
// -h prints the flag usage and exits 0, an unknown flag prints the
// problem plus the usage and exits 2 — nothing exits mid-parse or
// swallows the diagnostics.
func TestSubcommandHelpAudit(t *testing.T) {
	cmds := [][]string{
		{"detect"}, {"hier"}, {"summary"}, {"replay"}, {"report"},
		{"alerts"}, {"watch"}, {"cube"}, {"backup"}, {"restore"}, {"soak"},
		{"cluster", "status"}, {"cluster", "join"}, {"cluster", "drain"},
		{"cluster", "fail"}, {"cluster", "rebalance"},
	}
	for _, cmd := range cmds {
		t.Run(strings.Join(cmd, "_"), func(t *testing.T) {
			buf := captureFlagOut(t)
			if code := run(append(append([]string{}, cmd...), "-h")); code != 0 {
				t.Fatalf("%v -h exited %d, want 0", cmd, code)
			}
			if out := buf.String(); !strings.Contains(out, "Usage of") || !strings.Contains(out, "-") {
				t.Fatalf("%v -h printed no usage:\n%s", cmd, out)
			}
			buf.Reset()
			if code := run(append(append([]string{}, cmd...), "-no-such-flag")); code != 2 {
				t.Fatalf("%v -no-such-flag exited %d, want 2", cmd, code)
			}
			out := buf.String()
			if !strings.Contains(out, "no-such-flag") || !strings.Contains(out, "Usage of") {
				t.Fatalf("%v with a bad flag did not print the problem and the usage:\n%s", cmd, out)
			}
		})
	}
}

// TestUsageExitCodes pins exit 2 for the command-line mistakes that
// never reach a server: no subcommand, an unknown one, a missing
// cluster subcommand, and missing required flags.
func TestUsageExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no_command", nil},
		{"unknown_command", []string{"frobnicate"}},
		{"cluster_no_subcommand", []string{"cluster"}},
		{"cluster_unknown_subcommand", []string{"cluster", "explode"}},
		{"cluster_join_missing_node", []string{"cluster", "join"}},
		{"cluster_drain_missing_node", []string{"cluster", "drain"}},
		{"cluster_fail_missing_node", []string{"cluster", "fail"}},
		{"detect_missing_csv", []string{"detect"}},
		{"backup_missing_out", []string{"backup"}},
		{"restore_missing_in", []string{"restore"}},
		{"replay_missing_sensors", []string{"replay"}},
		{"soak_bad_runs", []string{"soak", "-runs", "0"}},
		{"cube_bad_where", []string{"cube", "-where", "line"}},
		{"cube_repeated_where_dim", []string{"cube", "-where", "line=a,line=b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := captureFlagOut(t)
			if code := run(tc.args); code != 2 {
				t.Fatalf("run(%v) exited %d, want 2", tc.args, code)
			}
			if buf.Len() == 0 {
				t.Fatalf("run(%v) printed nothing on the usage path", tc.args)
			}
		})
	}
}
