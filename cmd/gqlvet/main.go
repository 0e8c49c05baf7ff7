// Command gqlvet runs gqldb's project-specific static-analysis suite (see
// internal/analysis) over the module: panicfree, valuecmp, gosafe, errwrap,
// detmerge and aliasguard. It prints one
// file:line:col: [analyzer] message line per finding and exits non-zero
// when anything is flagged, so it can gate CI next to go vet.
//
// Usage:
//
//	gqlvet [-list] [-only name,...] [-disable name,...] [-json] [-o file]
//	       [-root dir] [-tests] [packages]
//
// The package arguments are accepted for command-line compatibility with
// go vet ("gqlvet ./...") but the whole module containing the working
// directory (or -root) is always loaded: the analyzers are cheap and
// cross-package (gosafe and panicfree reason about types defined
// elsewhere), so partial loads would only produce partial truths.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gqldb/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonReport is the -json document.
type jsonReport struct {
	Count    int           `json:"count"`
	Findings []jsonFinding `json:"findings"`
}

// run is the driver body, separated from main for testing: it parses args,
// loads the module, applies the analyzer selection and renders findings to
// stdout (or -o). The return value is the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gqlvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	asJSON := fs.Bool("json", false, "emit findings as a JSON document instead of text lines")
	outPath := fs.String("o", "", "write findings to this file instead of stdout")
	rootFlag := fs.String("root", "", "module root to analyze (default: nearest go.mod above the working directory)")
	tests := fs.Bool("tests", false, "also analyze _test.go files")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*only, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "gqlvet:", err)
		return 2
	}

	root := *rootFlag
	if root == "" {
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "gqlvet:", err)
			return 2
		}
	}
	fset := token.NewFileSet()
	passes, err := analysis.LoadModuleOpts(fset, root, analysis.LoadOptions{IncludeTests: *tests})
	if err != nil {
		fmt.Fprintln(stderr, "gqlvet:", err)
		return 2
	}
	diags := analysis.Run(passes, analyzers)

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, "gqlvet:", err)
			return 2
		}
		defer f.Close()
		out = f
	}
	if *asJSON {
		report := jsonReport{Count: len(diags), Findings: []jsonFinding{}}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "gqlvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "gqlvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -only and -disable flags against the suite.
func selectAnalyzers(only, disable string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	names := func(csv string) ([]string, error) {
		var out []string
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := byName[name]; !ok {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
			}
			out = append(out, name)
		}
		return out, nil
	}

	selected := all
	if only != "" {
		want, err := names(only)
		if err != nil {
			return nil, err
		}
		selected = nil
		for _, n := range want {
			selected = append(selected, byName[n])
		}
	}
	if disable != "" {
		skip, err := names(disable)
		if err != nil {
			return nil, err
		}
		skipSet := map[string]bool{}
		for _, n := range skip {
			skipSet[n] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range selected {
			if !skipSet[a.Name] {
				kept = append(kept, a)
			}
		}
		selected = kept
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return selected, nil
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
