package server

// The versioned, resource-oriented REST surface. Datasets are resources;
// searches, detections, comparisons, vertices, and exploration sessions
// are sub-resources of a dataset:
//
//	GET    /api/v1/datasets                         — list datasets
//	GET    /api/v1/datasets/{name}                  — one dataset
//	GET    /api/v1/datasets/{name}/vertices/{id}    — vertex by id or name
//	POST   /api/v1/datasets/{name}/mutations        — streaming graph edits
//	POST   /api/v1/datasets/{name}/search           — CS query (paginated)
//	POST   /api/v1/datasets/{name}/detect           — CD run (paginated)
//	POST   /api/v1/datasets/{name}/compare          — Figure-6 table
//	POST   /api/v1/datasets/{name}/analyze          — community metrics
//	POST   /api/v1/datasets/{name}/display          — community layout
//	POST   /api/v1/datasets/{name}/explore          — open a browse session
//	GET    /api/v1/datasets/{name}/explore/{id}     — session state
//	POST   /api/v1/datasets/{name}/explore/{id}/step — expand/contract/set k
//	DELETE /api/v1/datasets/{name}/explore/{id}     — close a session
//	DELETE /api/v1/datasets/{name}                  — drop a dataset (primary)
//	GET    /api/v1/algorithms                       — registered algorithms
//
// Community lists paginate with limit/offset and always report the total,
// and every failure arrives as the JSON error envelope {"error", "code"}
// mapped onto 404 / 400 / 499 / 504 by errStatus. The legacy flat routes
// delegate to the same handler cores, so both surfaces return identical
// results for identical queries.

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"cexplorer/internal/api"
)

func (s *Server) registerV1(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/v1/datasets", s.v1ListDatasets)
	mux.HandleFunc("GET /api/v1/datasets/{name}", s.v1GetDataset)
	mux.HandleFunc("DELETE /api/v1/datasets/{name}", s.v1DeleteDataset)
	mux.HandleFunc("GET /api/v1/datasets/{name}/vertices/{id}", s.v1GetVertex)
	mux.HandleFunc("POST /api/v1/datasets/{name}/mutations", s.v1Mutations)
	mux.HandleFunc("POST /api/v1/datasets/{name}/search", s.v1Search)
	mux.HandleFunc("POST /api/v1/datasets/{name}/detect", s.v1Detect)
	mux.HandleFunc("POST /api/v1/datasets/{name}/compare", s.v1Compare)
	mux.HandleFunc("POST /api/v1/datasets/{name}/analyze", s.v1Analyze)
	mux.HandleFunc("POST /api/v1/datasets/{name}/display", s.v1Display)
	mux.HandleFunc("POST /api/v1/datasets/{name}/explore", s.v1ExploreCreate)
	mux.HandleFunc("GET /api/v1/datasets/{name}/explore/{id}", s.v1ExploreGet)
	mux.HandleFunc("POST /api/v1/datasets/{name}/explore/{id}/step", s.v1ExploreStep)
	mux.HandleFunc("DELETE /api/v1/datasets/{name}/explore/{id}", s.v1ExploreClose)
	mux.HandleFunc("GET /api/v1/algorithms", s.v1Algorithms)
}

func (s *Server) v1ListDatasets(w http.ResponseWriter, r *http.Request) {
	infos := s.datasetInfos()
	writeJSON(w, map[string]any{"datasets": infos, "total": len(infos)})
}

func (s *Server) v1GetDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := s.exp.Dataset(name)
	if !ok {
		s.writeError(w, fmt.Errorf("%w: %q", api.ErrDatasetNotFound, name))
		return
	}
	writeJSON(w, s.datasetInfo(name, ds))
}

// v1DeleteDataset drops a dataset wholesale: registry, exploration
// sessions, cached results, catalog snapshot + journal, and the replication
// feed buffer. Parked journal long-polls wake and see 404 from then on, so
// replicas un-claim and drop the dataset too instead of serving a stale
// ghost forever. Replicas refuse the call — dataset lifecycle is the
// primary's to decide and replicate, never a per-node edit.
func (s *Server) v1DeleteDataset(w http.ResponseWriter, r *http.Request) {
	if s.fleetFence(w, r) || s.rejectReadOnly(w) {
		return
	}
	name := r.PathValue("name")
	if !s.exp.RemoveDataset(name) {
		s.writeError(w, fmt.Errorf("%w: %q", api.ErrDatasetNotFound, name))
		return
	}
	if f := s.feed(); f != nil {
		f.Reset(name)
	}
	if dir := s.DataDir(); dir != "" {
		s.journalMu.Lock()
		s.resetJournalLocked(name)
		if err := os.Remove(snapshotPath(dir, name)); err != nil && !os.IsNotExist(err) {
			s.logf("catalog: removing snapshot for %s: %v", name, err)
		}
		s.journalMu.Unlock()
	}
	s.logf("dataset %s deleted", name)
	writeJSON(w, map[string]any{"deleted": name})
}

// v1GetVertex resolves the {id} path segment as a vertex id when numeric,
// else as a vertex name — so both canonical resource links and
// human-friendly lookups work.
func (s *Server) v1GetVertex(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := s.exp.Dataset(name)
	if !ok {
		s.writeError(w, fmt.Errorf("%w: %q", api.ErrDatasetNotFound, name))
		return
	}
	idStr := r.PathValue("id")
	var v int32
	if id, err := strconv.Atoi(idStr); err == nil {
		if id < 0 || id >= ds.Graph.N() {
			s.writeError(w, fmt.Errorf("%w: id %d", api.ErrVertexNotFound, id))
			return
		}
		v = int32(id)
	} else {
		var found bool
		v, found = ds.Graph.VertexByName(idStr)
		if !found {
			s.writeError(w, fmt.Errorf("%w: %q", api.ErrVertexNotFound, idStr))
			return
		}
	}
	writeJSON(w, s.vertexPayload(name, ds, v))
}

func (s *Server) v1Search(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.execSearch(w, r, r.PathValue("name"), req, true)
}

func (s *Server) v1Detect(w http.ResponseWriter, r *http.Request) {
	var req detectRequest
	if !decodeBody(w, r, &req) {
		return
	}
	comms, elapsed, err := s.execDetect(r, r.PathValue("name"), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	page, total := pageOf(comms, req.Limit, req.Offset)
	info := &pageInfo{total, req.Limit, req.Offset}
	encodePage(w, func(e *pageEncoder) { e.communityPage(page, nil, nil, info, elapsed) })
}

func (s *Server) v1Compare(w http.ResponseWriter, r *http.Request) {
	var req compareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.execCompare(w, r, r.PathValue("name"), req)
}

func (s *Server) v1Analyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.execAnalyze(w, r, r.PathValue("name"), req)
}

func (s *Server) v1Display(w http.ResponseWriter, r *http.Request) {
	var req displayRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.execDisplay(w, r, r.PathValue("name"), req)
}

func (s *Server) v1Algorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"cs": s.exp.CSAlgorithms(),
		"cd": s.exp.CDAlgorithms(),
	})
}

// --- exploration sessions: the paper's browse loop as sub-resources ---

type exploreCreateRequest struct {
	// Name or Vertex anchors the session (name wins when both are set).
	// Vertex is a pointer so an absent field is distinguishable from
	// vertex 0: a request with neither anchor is rejected, not silently
	// anchored at 0.
	Name     string   `json:"name,omitempty"`
	Vertex   *int32   `json:"vertex,omitempty"`
	K        int      `json:"k"`
	Keywords []string `json:"keywords,omitempty"`
}

type exploreStepRequest struct {
	// Action is "expand" (k-1), "contract" (k+1), or "set" (explicit K).
	Action string `json:"action"`
	K      int    `json:"k,omitempty"`
}

func (s *Server) v1ExploreCreate(w http.ResponseWriter, r *http.Request) {
	var req exploreCreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.searchContext(r)
	defer cancel()
	dataset := r.PathValue("name")
	ds, ok := s.exp.Dataset(dataset)
	if !ok {
		s.writeError(w, fmt.Errorf("%w: %q", api.ErrDatasetNotFound, dataset))
		return
	}
	var v int32
	switch {
	case req.Name != "":
		var found bool
		v, found = ds.Graph.VertexByName(req.Name)
		if !found {
			s.writeError(w, fmt.Errorf("%w: %q", api.ErrVertexNotFound, req.Name))
			return
		}
	case req.Vertex != nil:
		v = *req.Vertex
	default:
		s.writeError(w, fmt.Errorf("%w: explore: no anchor vertex given (set name or vertex)", api.ErrInvalidQuery))
		return
	}
	// Session creation runs a search, so it pays for a worker slot like any
	// other search-class request.
	release, err := s.acquireSearchSlot(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()
	start := time.Now()
	st, err := s.exp.Explore(ctx, dataset, api.Query{Vertices: []int32{v}, K: req.K, Keywords: req.Keywords})
	elapsed := time.Since(start)
	s.stats.searchNanos.Add(elapsed.Nanoseconds())
	s.stats.searches.Add(1)
	if err != nil {
		s.writeError(w, err)
		return
	}
	encodePage(w, func(e *pageEncoder) { e.exploreState(st) })
}

func (s *Server) v1ExploreGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.exp.ExploreGet(r.PathValue("name"), r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	encodePage(w, func(e *pageEncoder) { e.exploreState(st) })
}

func (s *Server) v1ExploreStep(w http.ResponseWriter, r *http.Request) {
	var req exploreStepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.searchContext(r)
	defer cancel()
	release, err := s.acquireSearchSlot(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()
	start := time.Now()
	st, err := s.exp.ExploreStep(ctx, r.PathValue("name"), r.PathValue("id"), req.Action, req.K)
	elapsed := time.Since(start)
	s.stats.searchNanos.Add(elapsed.Nanoseconds())
	s.stats.searches.Add(1)
	if err != nil {
		s.writeError(w, err)
		return
	}
	encodePage(w, func(e *pageEncoder) { e.exploreState(st) })
}

func (s *Server) v1ExploreClose(w http.ResponseWriter, r *http.Request) {
	if err := s.exp.ExploreClose(r.PathValue("name"), r.PathValue("id")); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"closed": true})
}
