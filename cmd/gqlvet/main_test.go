package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runDriver invokes run() against a fixture module and returns the exit
// code with captured stdout/stderr.
func runDriver(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func dirtyRoot() string { return filepath.Join("testdata", "dirty") }
func cleanRoot() string { return filepath.Join("testdata", "clean") }

// TestRunTextOutput pins the text format and the findings exit code.
func TestRunTextOutput(t *testing.T) {
	code, out, errOut := runDriver(t, "-root", dirtyRoot())
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d finding lines, want 2:\n%s", len(lines), out)
	}
	wantFile := filepath.Join(dirtyRoot(), "internal", "match", "match.go")
	if !strings.HasPrefix(lines[0], wantFile+":9:2: [panicfree]") ||
		!strings.Contains(lines[0], "panic in hot-path function Boom") {
		t.Errorf("line 0 = %q, want %s:9:2: [panicfree] panic in hot-path function Boom ...", lines[0], wantFile)
	}
	if !strings.HasPrefix(lines[1], wantFile+":14:") || !strings.Contains(lines[1], "[errwrap]") {
		t.Errorf("line 1 = %q, want %s:14: [errwrap] ...", lines[1], wantFile)
	}
	if !strings.Contains(errOut, "2 finding(s)") {
		t.Errorf("stderr = %q, want finding count", errOut)
	}
}

// TestRunJSONOutput pins the -json document shape.
func TestRunJSONOutput(t *testing.T) {
	code, out, _ := runDriver(t, "-json", "-root", dirtyRoot())
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("unmarshaling -json output: %v\n%s", err, out)
	}
	if report.Count != 2 || len(report.Findings) != 2 {
		t.Fatalf("count = %d, findings = %d, want 2/2", report.Count, len(report.Findings))
	}
	f := report.Findings[0]
	if f.Analyzer != "panicfree" || f.Line != 9 || f.Col != 2 ||
		!strings.HasSuffix(f.File, filepath.Join("match", "match.go")) ||
		!strings.Contains(f.Message, "hot-path function Boom") {
		t.Errorf("finding = %+v, want panicfree at match.go:9:2", f)
	}
}

// TestRunCleanModule pins the zero exit code and empty output.
func TestRunCleanModule(t *testing.T) {
	code, out, errOut := runDriver(t, "-root", cleanRoot())
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errOut)
	}
	if out != "" {
		t.Errorf("stdout = %q, want empty", out)
	}
	code, out, _ = runDriver(t, "-json", "-root", cleanRoot())
	if code != 0 {
		t.Fatalf("-json exit = %d, want 0", code)
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("unmarshaling: %v", err)
	}
	if report.Count != 0 || report.Findings == nil {
		t.Errorf("clean -json = %+v, want count 0 with non-null findings array", report)
	}
}

// TestRunOutputFile pins -o: findings land in the file, not stdout.
func TestRunOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vet.json")
	code, out, _ := runDriver(t, "-json", "-o", path, "-root", dirtyRoot())
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if out != "" {
		t.Errorf("stdout = %q, want empty with -o", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading -o file: %v", err)
	}
	var report jsonReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("unmarshaling -o file: %v", err)
	}
	if report.Count != 2 {
		t.Errorf("count = %d, want 2", report.Count)
	}
}

// TestRunAnalyzerSelection pins -only and -disable.
func TestRunAnalyzerSelection(t *testing.T) {
	code, out, _ := runDriver(t, "-only", "errwrap", "-root", dirtyRoot())
	if code != 1 || strings.Contains(out, "panicfree") || !strings.Contains(out, "errwrap") {
		t.Errorf("-only errwrap: exit %d output %q", code, out)
	}
	code, out, _ = runDriver(t, "-disable", "errwrap,panicfree", "-root", dirtyRoot())
	if code != 0 || out != "" {
		t.Errorf("-disable errwrap,panicfree: exit %d output %q, want clean", code, out)
	}
}

// TestRunUsageErrors pins exit code 2 for bad invocations.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "nosuch", "-root", dirtyRoot()},
		{"-disable", "nosuch", "-root", dirtyRoot()},
		{"-disable", "panicfree,valuecmp,gosafe,errwrap,detmerge,aliasguard", "-root", dirtyRoot()},
		{"-root", filepath.Join("testdata", "nonexistent")},
		{"-badflag"},
	} {
		code, _, errOut := runDriver(t, args...)
		if code != 2 {
			t.Errorf("args %v: exit = %d, want 2 (stderr %q)", args, code, errOut)
		}
	}
}

// BenchmarkVet measures a full driver pass — parse, type-check, all six
// analyzers — over the dirty fixture module.
func BenchmarkVet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-root", dirtyRoot()}, &stdout, &stderr); code != 1 {
			b.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
		}
	}
}

// TestRunList pins -list output to the full suite.
func TestRunList(t *testing.T) {
	code, out, _ := runDriver(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, name := range []string{"panicfree", "valuecmp", "gosafe", "errwrap",
		"detmerge", "aliasguard"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}
