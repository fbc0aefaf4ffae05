package main

// The fleet under test: one primary with a data dir, two tailing replicas
// and one router, all in this process but talking over real loopback HTTP.
// Every node is wired the way cmd/cexplorer wires it, with the shipped
// defaults for cache, batcher, compaction, replica and router options.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
	"cexplorer/internal/repl"
	"cexplorer/internal/servecache"
	"cexplorer/internal/server"
	"cexplorer/internal/snapshot"
)

// node is one serving process of the fleet.
type node struct {
	exp  *api.Explorer
	srv  *server.Server
	hs   *http.Server
	done chan struct{} // closed when hs.Serve returns
	url  string
	rep  *repl.Replica // replica role only
}

// listen serves h on an ephemeral loopback port with the timeouts
// server.ListenAndServe and cmd/cexplorer's router use.
func listen(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

// newServer builds a server with cmd/cexplorer's default serving options.
func newServer(exp *api.Explorer) *server.Server {
	srv := server.New(exp, nil)
	srv.SetOpenMode(snapshot.OpenAuto)
	srv.EnableCache(servecache.DefaultMaxEntries, servecache.DefaultMaxBytes, 0)
	srv.EnableBatcher(api.BatcherOptions{MaxOps: api.DefaultBatchMaxOps, MaxWait: api.DefaultBatchMaxWait})
	return srv
}

// enableFleet arms the role-transition endpoints with the tailer factory
// cmd/cexplorer hands every server node.
func (n *node) enableFleet() {
	n.srv.EnableFleet(server.FleetControl{
		StartTailer: func(primaryURL string) (server.ReplicaSource, func()) {
			rep := repl.NewReplica(n.exp, primaryURL, repl.ReplicaOptions{})
			n.rep = rep
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				rep.Run(ctx)
			}()
			return rep, func() {
				cancel()
				<-done
			}
		},
		Feed: repl.FeedOptions{MaxRecords: repl.DefaultFeedRecords},
	})
}

func (n *node) serve() error {
	var err error
	n.hs, n.url, n.done, err = listen(n.srv.Handler())
	return err
}

// stop drains the node: tailer and feed first (server.Shutdown), then the
// listener.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	if n.hs != nil {
		n.hs.Shutdown(ctx)
		<-n.done
	}
}

// startPrimary boots a primary over dir. With a dataset it registers,
// indexes and persists it (a first boot); with d == nil it loads whatever
// the catalog holds (a restart).
func startPrimary(dir string, d *gen.DBLP, st *setupTimes) (*node, error) {
	exp := api.NewExplorer()
	n := &node{exp: exp, srv: newServer(exp)}
	n.enableFleet()
	n.srv.EnableReplicationPrimary(repl.FeedOptions{MaxRecords: repl.DefaultFeedRecords})
	if err := n.srv.SetDataDir(dir); err != nil {
		return nil, err
	}
	if d == nil {
		if _, err := n.srv.LoadSnapshots(); err != nil {
			return nil, err
		}
		if _, ok := exp.Dataset(datasetName); !ok {
			return nil, fmt.Errorf("restart: catalog %s holds no %s", dir, datasetName)
		}
	} else {
		ds, err := exp.AddGraph(datasetName, d.Graph)
		if err != nil {
			return nil, err
		}
		n.srv.SetProfiles(datasetName, d.Profiles)
		t := time.Now()
		ds.BuildIndexes()
		st.BuildIndexes = time.Since(t)
		st.Index = ds.BuildTimings()
		if _, err := n.srv.PersistDataset(ds); err != nil {
			return nil, err
		}
	}
	return n, n.serve()
}

// startReplica boots a replica tailing primaryURL through the same tailer
// factory cmd/cexplorer hands the server, and waits until it has
// bootstrapped the dataset and is tailing.
func startReplica(ctx context.Context, primaryURL string) (*node, error) {
	exp := api.NewExplorer()
	n := &node{exp: exp, srv: newServer(exp)}
	n.enableFleet()
	n.srv.StartFleetReplica(primaryURL)
	if err := n.serve(); err != nil {
		n.stop()
		return nil, err
	}
	if err := n.waitTailing(ctx); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// waitTailing polls until the replica has finished bootstrapping.
// WaitVersion(0) cannot tell: a claimed, still-empty state already satisfies it.
func (n *node) waitTailing(ctx context.Context) error {
	for {
		if st, ok := n.rep.Status(datasetName); ok && st.Phase == repl.PhaseTailing {
			if _, ok := n.exp.Dataset(datasetName); ok {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replica %s never finished bootstrapping: %w", n.url, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// setupTimes is the stage breakdown of one fleet boot.
type setupTimes struct {
	Generate, BuildIndexes, Persist, Boot, Bootstrap, Inputs, Total time.Duration
	Index                                                           api.IndexTimings
	SnapshotBytes                                                   int64
}

// fleet is the running topology plus the inputs generated for it.
type fleet struct {
	dir      string // scratch root of this fleet; dataDir lives under it
	dataDir  string
	data     *gen.DBLP
	in       *inputs
	primary  *node
	replicas []*node
	router   *repl.Router
	front    *node // the router's listener (only hs/url/done are set)
	stopRun  func()
}

// bootFleet generates the dataset for (sc, seed), boots the fleet over it
// and generates the run's inputs. The returned times are what setup_s and
// its per-layer breakdown report.
func bootFleet(ctx context.Context, sc scale, seed int64, work string) (*fleet, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	dir, err := os.MkdirTemp(work, "fleet-")
	if err != nil {
		return nil, st, err
	}
	f := &fleet{dir: dir, dataDir: filepath.Join(dir, "data")}
	fail := func(err error) (*fleet, setupTimes, error) {
		f.stop()
		return nil, st, err
	}

	t := time.Now()
	f.data = gen.GenerateDBLP(datasetConfig(sc))
	st.Generate = time.Since(t)

	if f.primary, err = startPrimary(f.dataDir, f.data, &st); err != nil {
		return fail(err)
	}
	type booted struct {
		n   *node
		err error
	}
	ch := make(chan booted, 2) // one send per replica
	for range 2 {
		go func() {
			n, err := startReplica(ctx, f.primary.url)
			ch <- booted{n, err}
		}()
	}
	for range 2 {
		b := <-ch
		if b.err != nil {
			err = errors.Join(err, b.err)
			continue
		}
		f.replicas = append(f.replicas, b.n)
	}
	if err != nil {
		return fail(err)
	}

	f.router = repl.NewRouter(f.primary.url, []string{f.replicas[0].url, f.replicas[1].url}, repl.RouterOptions{})
	f.router.EnableSelfHealing(repl.SelfHealOptions{
		Monitor: repl.MonitorOptions{Interval: time.Second, FailThreshold: 3},
		Promote: true,
	})
	rctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		f.router.Run(rctx)
	}()
	f.stopRun = func() {
		cancel()
		<-runDone
	}
	f.front = &node{}
	if f.front.hs, f.front.url, f.front.done, err = listen(f.router.Handler()); err != nil {
		return fail(err)
	}

	pds, _ := f.primary.exp.Dataset(datasetName)
	f.in = buildInputs(sc, f.data.Graph, pds.CoreNumbers(), seed)
	st.Total = time.Since(start)
	return f, st, nil
}

// home returns the replica the router's consistent hash sends the dataset's
// reads to, found by asking the router which node served one.
func (f *fleet) home(c *client) (*node, error) {
	served, err := c.servedBy(f.front.url)
	if err != nil {
		return nil, err
	}
	for _, r := range f.replicas {
		if r.url == served {
			return r, nil
		}
	}
	return nil, fmt.Errorf("router served a read from %q, not a replica", served)
}

// stop tears the fleet down and removes its scratch directory. Safe on a
// partially booted fleet.
func (f *fleet) stop() {
	if f.front != nil && f.front.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		f.front.hs.Shutdown(ctx)
		cancel()
		<-f.front.done
	}
	if f.stopRun != nil {
		f.stopRun()
	}
	for _, r := range f.replicas {
		r.stop()
	}
	if f.primary != nil {
		f.primary.stop()
	}
	// Router and replicas use default clients over the shared transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	os.RemoveAll(f.dir)
}
