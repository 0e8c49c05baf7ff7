package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"

	"gqldb/internal/exec"
	"gqldb/internal/graph"
	"gqldb/internal/server"
	"gqldb/internal/store"
)

// loadCorpus reads a generated corpus file the way the servers do: .tsv
// is one large graph, .bin a binary collection.
func loadCorpus(path string) (graph.Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".tsv") {
		g, err := graph.ReadTSV(f)
		if err != nil {
			return nil, err
		}
		return graph.NewCollection(g), nil
	}
	return graph.ReadBinary(f)
}

// oracle answers read programs on an embedded engine over the generated
// corpus file: unsharded, unindexed, uncached, serial — the configuration
// least like any of the measured servers — behind the real request handler
// so that its row lines are byte-comparable with a live response.
type oracle struct {
	srv *server.Server
}

func newOracle(corpusPath, doc string) (*oracle, error) {
	coll, err := loadCorpus(corpusPath)
	if err != nil {
		return nil, fmt.Errorf("bench: oracle: loading %s: %w", corpusPath, err)
	}
	ds := store.New(store.Options{})
	ds.RegisterDoc(doc, coll)
	return &oracle{srv: quietServer(exec.NewOver(ds))}, nil
}

// quietServer mounts an engine behind the production handler with the
// access log off and admission wide open (in-process callers are the
// harness itself).
func quietServer(eng *exec.Engine) *server.Server {
	return server.New(server.Config{
		Engine:      eng,
		MaxInflight: 1 << 10,
		AccessLog:   func(server.AccessRecord) {},
	})
}

// serveInProcess runs one request through a handler without a socket and
// returns the status and body.
func serveInProcess(h http.Handler, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// answer evaluates every program and returns the read ops in program
// order. Programs are independent, so two goroutines share them.
func (o *oracle) answer(progs []string, take int) ([]readOp, error) {
	ops := make([]readOp, len(progs))
	errs := make([]error, len(progs))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(progs); i += clients {
				src := progs[i]
				body := encodeQuery(src, take)
				status, resp := serveInProcess(o.srv, "/v2/query", body)
				if status != http.StatusOK {
					errs[i] = fmt.Errorf("bench: oracle: HTTP %d for program:\n%s\n%s", status, src, resp)
					continue
				}
				rows, hash, err := digestQueryResponse(resp)
				if err != nil {
					errs[i] = fmt.Errorf("bench: oracle: %w; program:\n%s", err, src)
					continue
				}
				ops[i] = readOp{src: src, body: body, wantRows: rows, wantHash: hash}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return ops, nil
}

var (
	rowPrefix     = []byte(`{"row":`)
	summaryPrefix = []byte(`{"summary":`)
)

// digestQueryResponse reduces a /v2/query NDJSON body to its row count and
// an ordered FNV-1a hash of the row lines. Row order is deterministic by
// the engine's contract, so order is part of the answer. The summary line
// carries wall_ms and is excluded from the hash; its row count must agree
// with the lines seen. An error line, or a body without a summary, is an
// error: a stream that broke mid-way must not pass as a short answer.
func digestQueryResponse(body []byte) (rows int, hash uint64, err error) {
	h := fnv.New64a()
	summarized := false
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		switch {
		case len(line) == 0:
		case bytes.HasPrefix(line, rowPrefix):
			if summarized {
				return 0, 0, errors.New("row line after the summary")
			}
			h.Write(line)
			h.Write([]byte{'\n'})
			rows++
		case bytes.HasPrefix(line, summaryPrefix):
			var s struct {
				Summary struct {
					Rows int `json:"rows"`
				} `json:"summary"`
			}
			if err := json.Unmarshal(line, &s); err != nil {
				return 0, 0, fmt.Errorf("summary line does not decode: %w", err)
			}
			if s.Summary.Rows != rows {
				return 0, 0, fmt.Errorf("summary reports %d rows, stream carried %d", s.Summary.Rows, rows)
			}
			summarized = true
		default:
			return 0, 0, fmt.Errorf("unexpected line %.200q", line)
		}
	}
	if !summarized {
		return 0, 0, errors.New("response ended without a summary line")
	}
	return rows, h.Sum64(), nil
}

// checkRead verifies a live /v2/query response against the oracle.
func checkRead(op *readOp, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	rows, hash, err := digestQueryResponse(body)
	if err != nil {
		return err
	}
	if rows != op.wantRows || hash != op.wantHash {
		return fmt.Errorf("wrong answer: %d rows hash %016x, oracle has %d rows hash %016x",
			rows, hash, op.wantRows, op.wantHash)
	}
	return nil
}

// checkWrite verifies a live /v2/mutate response against the counts the
// generator's model of the scratch graphs predicts.
func checkWrite(op *writeOp, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	var got mutationCounts
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("mutate response does not decode: %w", err)
	}
	if got != op.want {
		return fmt.Errorf("wrong mutation summary: got %+v, want %+v", got, op.want)
	}
	return nil
}
