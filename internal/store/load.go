package store

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gqldb/internal/graph"
	"gqldb/internal/parser"
)

// DocFlags collects repeated -doc name=path command-line bindings
// (flag.Value); the binaries hand it to BootstrapFiles.
type DocFlags map[string]string

func (d DocFlags) String() string { return fmt.Sprint(map[string]string(d)) }

// Set implements flag.Value.
func (d DocFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("store: expected name=path, got %q", v)
	}
	d[name] = path
	return nil
}

// LoadFile reads a document file: .tsv is one large graph, .bin a binary
// collection; anything else is parsed as a sequence of graph literals.
func LoadFile(path string) (graph.Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".tsv"):
		g, err := graph.ReadTSV(f)
		if err != nil {
			return nil, err
		}
		return graph.NewCollection(g), nil
	case strings.HasSuffix(path, ".bin"):
		return graph.ReadBinary(f)
	}
	src, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return parser.ParseCollection(string(src))
}

// BootstrapFiles returns the deterministic startup bootstrap over name=path
// bindings: each file is loaded and registered in sorted name order,
// skipping names a durability checkpoint already restored. Two bootstraps
// of the same bindings therefore yield identical store and document
// versions — the contract OpenDurable's recovery protocol needs to replay
// the WAL against a reproducible baseline, and what keeps a shard mirror's
// plan-cache epochs the same from run to run. logf receives one progress
// line per document.
func BootstrapFiles(files map[string]string, logf func(format string, args ...any)) func(*DocStore) error {
	return func(s *DocStore) error {
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		present := s.Snapshot()
		for _, name := range names {
			if _, ok := present.Doc(name); ok {
				logf("document %s restored from checkpoint", name)
				continue
			}
			coll, err := LoadFile(files[name])
			if err != nil {
				return fmt.Errorf("loading %s: %w", files[name], err)
			}
			if _, err := s.RegisterDoc(name, coll); err != nil {
				return fmt.Errorf("registering %s: %w", name, err)
			}
			logf("loaded document %s from %s (%d graphs)", name, files[name], len(coll))
		}
		return nil
	}
}
