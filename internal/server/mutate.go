// The mutation endpoint: POST /v2/mutate accepts a mutation program (the
// create/drop/insert/delete statement forms) and applies it as one
// all-or-nothing batch through the engine's store. The 200 response is
// written only after the store has committed — when the store is a
// durable one (store.OpenDurable), that commit has already fsynced the
// batch into the write-ahead log, so a 200 means the mutation survives a
// crash.
package server

import (
	"errors"
	"net/http"
	"time"

	"gqldb/internal/exec"
)

// mutateResponse is the success shape of /v2/mutate: the store's
// per-kind application counts plus the committed version and wall time.
type mutateResponse struct {
	*exec.MutationSummary
	WallMS float64 `json:"wall_ms"`
}

// handleMutateV2 serves POST /v2/mutate. The body is a mutation program
// (raw, or inside the usual JSON envelope); parse failures are 400s,
// and application failures (unknown document, duplicate node, ...) are
// 422s with the positioned batch error.
// The endpoint is mounted only under Config.Admin, like /admin/doc: the
// write surface is for trusted operators, not the query plane.
func (s *Server) handleMutateV2(w *statusWriter, r *http.Request) {
	req, ctx, done, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer done()
	start := time.Now()
	sum, err := s.engine.Mutate(ctx, req.Query)
	if err != nil {
		status, code, msg := s.errorFor(req, err)
		var parseErr *exec.ParseError
		if !errors.As(err, &parseErr) && status == http.StatusUnprocessableEntity {
			code = "mutation_error"
		}
		writeError(w, status, code, msg)
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{
		MutationSummary: sum,
		WallMS:          float64(time.Since(start)) / float64(time.Millisecond),
	})
}
