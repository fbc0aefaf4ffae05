package main

// The load generator's HTTP side: one client over at most `conns`
// connections per host, and one method per request the workloads send.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/repl"
)

type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is a well-formed 200 answer.
type reply struct {
	bytes    int64  // exact body length
	body     []byte // the body, only when the caller asked to keep it
	servedBy string // router-stamped upstream, "" on direct requests
}

var copyBufs = sync.Pool{New: func() any { return new([64 << 10]byte) }}

// do sends one request and accepts only a complete 200 whose body is a JSON
// object. Bodies run to megabytes, so unless keep is set the body is
// streamed through a pooled buffer and only its ends are inspected; kept
// bodies are decoded by the caller, which checks them fully.
func (c *client) do(method, url string, body []byte, minVersion uint64, keep bool) (reply, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if minVersion > 0 {
		req.Header.Set(repl.HeaderMinVersion, strconv.FormatUint(minVersion, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	rep := reply{servedBy: resp.Header.Get(repl.HeaderServedBy)}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return rep, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var first, last byte
	if keep {
		if rep.body, err = io.ReadAll(resp.Body); err != nil {
			return rep, fmt.Errorf("%s %s: reading body: %w", method, url, err)
		}
		rep.bytes = int64(len(rep.body))
		if trimmed := bytes.TrimSpace(rep.body); len(trimmed) > 0 {
			first, last = trimmed[0], trimmed[len(trimmed)-1]
		}
	} else {
		buf := copyBufs.Get().(*[64 << 10]byte)
		defer copyBufs.Put(buf)
		for {
			n, rerr := resp.Body.Read(buf[:])
			if n > 0 {
				if rep.bytes == 0 {
					first = buf[0]
				}
				rep.bytes += int64(n)
				// json.Encoder ends every document with a newline.
				for i := n - 1; i >= 0; i-- {
					if buf[i] != '\n' {
						last = buf[i]
						break
					}
				}
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return rep, fmt.Errorf("%s %s: reading body: %w", method, url, rerr)
			}
		}
	}
	if first != '{' || last != '}' {
		return rep, fmt.Errorf("%s %s: body is not a JSON object (%d bytes, %q…%q)", method, url, rep.bytes, first, last)
	}
	return rep, nil
}

func dsURL(base, sub string) string { return base + "/api/v1/datasets/" + datasetName + sub }

// search posts q; a kept body decodes with decodeCommunities.
func (c *client) search(base string, q *query, minVersion uint64, keep bool) (reply, error) {
	return c.do("POST", dsURL(base, "/search"), q.body, minVersion, keep)
}

type wireCommunity struct {
	Vertices []int32 `json:"vertices"`
}

func decodeCommunities(body []byte) ([]wireCommunity, error) {
	var out struct {
		Communities []wireCommunity `json:"communities"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("search response does not decode: %w", err)
	}
	return out.Communities, nil
}

func (c *client) analyze(base string, vertices []int32, qv int32) (reply, error) {
	body := mustJSON(map[string]any{"vertices": vertices, "query": qv, "method": "ACQ"})
	return c.do("POST", dsURL(base, "/analyze"), body, 0, false)
}

func (c *client) display(base string, vertices []int32) (reply, error) {
	body := mustJSON(map[string]any{"vertices": vertices, "seed": 1})
	return c.do("POST", dsURL(base, "/display"), body, 0, false)
}

// exploreOpen opens a browse session anchored like q and returns its id.
func (c *client) exploreOpen(base string, q *query) (string, error) {
	body := mustJSON(map[string]any{"vertex": q.Vertices[0], "k": q.K, "keywords": q.Keywords})
	rep, err := c.do("POST", dsURL(base, "/explore"), body, 0, true)
	if err != nil {
		return "", err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rep.body, &st); err != nil || st.ID == "" {
		return "", fmt.Errorf("explore response carries no session id (%v)", err)
	}
	return st.ID, nil
}

func (c *client) exploreStep(base, id, action string) error {
	_, err := c.do("POST", dsURL(base, "/explore/"+id+"/step"), mustJSON(map[string]string{"action": action}), 0, false)
	return err
}

func (c *client) exploreClose(base, id string) error {
	_, err := c.do("DELETE", dsURL(base, "/explore/"+id), nil, 0, false)
	return err
}

// mutate posts ops as one request (inline for a single op, a batch
// otherwise) and returns the acknowledged result.
func (c *client) mutate(base string, ops []api.Mutation) (*api.MutationResult, error) {
	var body []byte
	if len(ops) == 1 {
		body = mustJSON(ops[0])
	} else {
		body = mustJSON(map[string]any{"mutations": ops})
	}
	rep, err := c.do("POST", dsURL(base, "/mutations"), body, 0, true)
	if err != nil {
		return nil, err
	}
	var res api.MutationResult
	if err := json.Unmarshal(rep.body, &res); err != nil {
		return nil, fmt.Errorf("mutation response does not decode: %w", err)
	}
	if res.Applied != len(ops) || !res.Journaled || res.Version == 0 {
		return nil, fmt.Errorf("mutation ack malformed: applied %d of %d, journaled %v, version %d",
			res.Applied, len(ops), res.Journaled, res.Version)
	}
	return &res, nil
}

// info fetches the dataset resource, the cheapest read the version gate
// covers.
func (c *client) info(base string, minVersion uint64) (reply, error) {
	return c.do("GET", dsURL(base, ""), nil, minVersion, false)
}

// servedBy reports which upstream the router picks for the dataset's reads.
func (c *client) servedBy(routerURL string) (string, error) {
	rep, err := c.info(routerURL, 0)
	return rep.servedBy, err
}
