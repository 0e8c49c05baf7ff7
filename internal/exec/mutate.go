// Mutation execution: the engine-level surface that turns a parsed
// mutation program into one transactional store ApplyBatch. Queries and
// mutations stay on separate entry points — RunQuery rejects mutation
// statements, Mutate rejects query statements — so a program is always
// wholly one or the other and a batch's all-or-nothing semantics are
// never entangled with partial query output.

package exec

import (
	"context"
	"errors"
	"fmt"

	"gqldb/internal/ast"
	"gqldb/internal/parser"
	"gqldb/internal/store"
)

// MutationSummary is what a mutation program returns: the store version
// the batch committed as plus per-kind application counts. It is the
// store's ApplyResult verbatim (json tags included), re-exported so
// frontends need not import internal/store.
type MutationSummary = store.ApplyResult

// Mutate parses and applies a mutation program — a program consisting
// solely of mutation statements — as one all-or-nothing batch against the
// engine's store. Parse failures return a *ParseError; a program mixing
// query and mutation statements is rejected.
func (e *Engine) Mutate(ctx context.Context, src string) (*MutationSummary, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	if !ast.IsMutationProgram(prog) {
		return nil, errors.New("exec: mutation programs must consist solely of mutation statements (and at least one)")
	}
	muts, err := LowerMutations(prog)
	if err != nil {
		return nil, err
	}
	if e.Docs == nil {
		return nil, errors.New("exec: engine has no document store to mutate")
	}
	return e.Docs.ApplyBatch(ctx, muts)
}

// LowerMutations lowers every statement of a mutation program into store
// mutations, evaluating attribute tuples and create-graph bodies. The
// program must already be mutation-only (ast.IsMutationProgram).
func LowerMutations(prog *ast.Program) ([]store.Mutation, error) {
	muts := make([]store.Mutation, 0, len(prog.Stmts))
	for i, s := range prog.Stmts {
		ms, ok := s.(*ast.MutationStmt)
		if !ok {
			return nil, fmt.Errorf("exec: statement %d: %T is not a mutation statement", i, s)
		}
		m, err := lowerMutation(ms)
		if err != nil {
			return nil, fmt.Errorf("exec: statement %d: %w", i, err)
		}
		muts = append(muts, m)
	}
	return muts, nil
}

func lowerMutation(ms *ast.MutationStmt) (store.Mutation, error) {
	m := store.Mutation{
		Doc:   ms.Doc,
		Graph: ms.Graph,
		Name:  ms.Name,
		From:  ms.From,
		To:    ms.To,
	}
	switch ms.Kind {
	case ast.MutCreateGraph:
		m.Op = store.OpCreateGraph
	case ast.MutDropGraph:
		m.Op = store.OpDropGraph
	case ast.MutInsertNode:
		m.Op = store.OpInsertNode
	case ast.MutInsertEdge:
		m.Op = store.OpInsertEdge
	case ast.MutDeleteNode:
		m.Op = store.OpDeleteNode
	case ast.MutDeleteEdge:
		m.Op = store.OpDeleteEdge
	default:
		return m, fmt.Errorf("exec: unknown mutation kind %d", ms.Kind)
	}
	if ms.Kind == ast.MutCreateGraph && len(ms.Members) > 0 {
		body, err := ms.BodyGraph()
		if err != nil {
			return m, err
		}
		m.Body = body
		return m, nil
	}
	attrs, err := ms.EvalTuple()
	if err != nil {
		return m, err
	}
	m.Attrs = attrs
	return m, nil
}
