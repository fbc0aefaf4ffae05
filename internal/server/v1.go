package server

// The server's API: a versioned, resource-oriented REST surface. Datasets
// are resources; searches, detections, comparisons, vertices, and
// exploration sessions are sub-resources of a dataset:
//
//	GET    /api/v1/datasets                         — list datasets
//	GET    /api/v1/datasets/{name}                  — one dataset
//	PUT    /api/v1/datasets/{name}                  — upload a graph (JSON wire format)
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
// mapped onto 404 / 400 / 499 / 504 by errStatus.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/graph"
	"cexplorer/internal/layout"
	"cexplorer/internal/repl"
)

func (s *Server) registerV1(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/v1/datasets", s.v1ListDatasets)
	mux.HandleFunc("GET /api/v1/datasets/{name}", s.v1GetDataset)
	mux.HandleFunc("PUT /api/v1/datasets/{name}", s.v1PutDataset)
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
	var infos []graphInfo
	for _, name := range s.exp.Datasets() {
		ds, _ := s.exp.Dataset(name)
		infos = append(infos, s.datasetInfo(name, ds))
	}
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

// v1PutDataset uploads a graph under {name}, the body being the JSON graph
// wire format itself, and replaces any dataset of that name wholesale. It
// stores like every write (see store): with a catalog, a 200 with
// persistedBytes means the dataset survives a restart, and a failed
// persist refuses it. The persist builds all indexes, warming the dataset.
func (s *Server) v1PutDataset(w http.ResponseWriter, r *http.Request) {
	if !s.writeGate(w, r) {
		return
	}
	g, err := graph.LoadJSON(r.Body)
	if err == nil {
		err = g.Validate()
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "upload: %v", err)
		return
	}
	ds := api.NewDataset(r.PathValue("name"), g)
	start := time.Now()
	n, err := s.replaceDataset(ds.Name, ds)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := map[string]any{"name": ds.Name, "stats": ds.Graph.ComputeStats()}
	if s.DataDir() != "" {
		resp["persistedBytes"] = n
		resp["persistMs"] = msec(time.Since(start))
	}
	writeJSON(w, resp)
}

// v1DeleteDataset drops a dataset wholesale: registry, exploration
// sessions, cached results, catalog snapshot + journal, and the replication
// feed buffer. Parked journal long-polls wake and see 404 from then on, so
// replicas un-claim and drop the dataset too instead of serving a stale
// ghost forever. Replicas refuse the call — dataset lifecycle is the
// primary's to decide and replicate, never a per-node edit.
func (s *Server) v1DeleteDataset(w http.ResponseWriter, r *http.Request) {
	if !s.writeGate(w, r) {
		return
	}
	name := r.PathValue("name")
	if _, err := s.replaceDataset(name, nil); err != nil {
		s.writeError(w, err)
		return
	}
	s.logf("dataset %s deleted", name)
	writeJSON(w, map[string]any{"deleted": name})
}

// replaceDataset is an upload's write (next non-nil) or a delete's: the
// durable step persists next or removes the catalog files, its undo puts
// back the displaced dataset, and the commit resets the feed (see store).
func (s *Server) replaceDataset(name string, next *api.Dataset) (int64, error) {
	w := s.exp.Lock(name)
	defer w.Unlock()
	cur, ok := w.Dataset()
	if !ok && next == nil {
		return 0, fmt.Errorf("%w: %q", api.ErrDatasetNotFound, name)
	}
	var n int64
	err := s.store(w, next, func(dir string) (func() error, error) {
		undo := func() error {
			if cur == nil {
				return s.removeCatalogFiles(dir, name)
			}
			_, err := s.persistDataset(cur, true)
			return err
		}
		if next == nil {
			return undo, s.removeCatalogFiles(dir, name)
		}
		var err error
		n, err = s.persistDataset(next, false)
		return undo, err
	}, func() error { return s.commit(name, 0, nil) })
	return n, err
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
	resp := map[string]any{
		"id":       v,
		"name":     ds.Graph.Name(v),
		"degree":   ds.Graph.Degree(v),
		"core":     ds.CoreNumbers()[v],
		"keywords": ds.Graph.KeywordStrings(v),
	}
	s.mu.RLock()
	if p, ok := s.profiles[name][v]; ok {
		resp["profile"] = p
	}
	s.mu.RUnlock()
	writeJSON(w, resp)
}

// v1Search resolves the dataset once and keeps that version pinned until
// the body is out, resolves the query on it, runs the algorithm under the
// request's (possibly deadline-bounded) context, paginates, and streams the
// page. The names (and, with Layout, the
// placements, computed only for the page returned) come from the version
// that produced the ids: a mutation that lands mid-request cannot hand the
// encoder an id its graph does not have.
func (s *Server) v1Search(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.searchContext(r)
	defer cancel()
	ds, unpin, err := s.exp.Pin(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer unpin()
	qv, err := s.resolveQuery(ds, req.Names, req.Vertices)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if req.Algorithm == "" {
		req.Algorithm = "ACQ"
	}
	comms, elapsed, err := s.runSearch(ctx, ds, req, qv)
	if err != nil {
		s.writeError(w, err)
		return
	}
	page, total := pageOf(comms, req.Limit, req.Offset)
	var place func(api.Community) []byte
	if req.Layout {
		place = func(c api.Community) []byte {
			pl, err := ds.Display(c, layout.Options{Seed: 1})
			if err != nil {
				return nil
			}
			// A placement is small next to the layout that made it, and
			// one that does not marshal is left out like one that failed.
			b, _ := json.Marshal(pl)
			return b
		}
	}
	w.Header().Set(repl.HeaderVersion, strconv.FormatUint(ds.Version, 10))
	names := ds.NameForm(quoteNames).(*quotedNames)
	info := pageInfo{total, req.Limit, req.Offset}
	encodePage(w, func(e *pageEncoder) { e.communityPage(page, names, place, info, elapsed) })
}

// v1Detect runs the CD algorithm under the request context, filters by
// MinSize, sorts largest-first, and streams the requested page.
func (s *Server) v1Detect(w http.ResponseWriter, r *http.Request) {
	var req detectRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.searchContext(r)
	defer cancel()
	if req.Algorithm == "" {
		req.Algorithm = "CODICIL"
	}
	start := time.Now()
	comms, err := s.exp.Detect(ctx, r.PathValue("name"), req.Algorithm)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Detect may hand back the slice shared with the result cache and with
	// concurrent requests; the filter and sort below mutate in place, so
	// work on a private copy.
	comms = slices.Clone(comms)
	if req.MinSize > 0 {
		filtered := comms[:0]
		for _, c := range comms {
			if len(c.Vertices) >= req.MinSize {
				filtered = append(filtered, c)
			}
		}
		comms = filtered
	}
	slices.SortFunc(comms, func(a, b api.Community) int { return len(b.Vertices) - len(a.Vertices) })
	elapsed := time.Since(start)
	page, total := pageOf(comms, req.Limit, req.Offset)
	info := pageInfo{total, req.Limit, req.Offset}
	encodePage(w, func(e *pageEncoder) { e.communityPage(page, nil, nil, info, elapsed) })
}

// v1Compare renders the Figure 6(a) experience as one API call: run several
// algorithms for the same query and report statistics + CPJ/CMF.
func (s *Server) v1Compare(w http.ResponseWriter, r *http.Request) {
	var req compareRequest
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
	q := req.Vertex
	if req.Name != "" {
		if q, ok = ds.Graph.VertexByName(req.Name); !ok {
			s.writeError(w, fmt.Errorf("%w: %q", api.ErrVertexNotFound, req.Name))
			return
		}
	}
	if q < 0 || int(q) >= ds.Graph.N() {
		s.writeError(w, fmt.Errorf("%w: vertex %d out of range", api.ErrInvalidQuery, q))
		return
	}
	algos := req.Algorithms
	if len(algos) == 0 {
		algos = []string{"Global", "Local", "CODICIL", "ACQ"}
	}
	// The rows run serially, each admitted like the search, detect or
	// analyze it is.
	rows := make([]compareRow, 0, len(algos))
	for _, name := range algos {
		rows = append(rows, s.compareOne(ctx, dataset, ds, name, q, req.K))
	}
	writeJSON(w, map[string]any{"query": q, "rows": rows})
}

func (s *Server) v1Analyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.searchContext(r)
	defer cancel()
	a, err := s.exp.Analyze(ctx, r.PathValue("name"), api.Community{Method: req.Method, Vertices: req.Vertices}, req.Query)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, a)
}

func (s *Server) v1Display(w http.ResponseWriter, r *http.Request) {
	var req displayRequest
	if !decodeBody(w, r, &req) {
		return
	}
	pl, err := s.exp.Display(r.Context(), r.PathValue("name"), api.Community{Vertices: req.Vertices}, layout.Options{
		Width: req.Width, Height: req.Height, Seed: req.Seed,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, pl)
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
