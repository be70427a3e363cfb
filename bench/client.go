package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"treesim/internal/telemetry"
)

// client is one of the harness's two connections: a strictly serial
// HTTP caller holding at most one keep-alive connection per daemon. It
// counts what it attempted and what failed for failed_share.
type client struct {
	http      *http.Client
	attempted atomic.Int64
	failed    atomic.Int64
}

func newClient() *client {
	return &client{http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns status and body. Transport errors
// are returned; the caller decides which statuses are failures.
func (c *client) do(method, url, contentType string, body io.Reader) (int, []byte, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// op is do for a workload operation: it is counted, and anything but
// the wanted status counts as failed.
func (c *client) op(method, url, contentType, body string, want int) ([]byte, error) {
	c.attempted.Add(1)
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	code, data, err := c.do(method, url, contentType, rd)
	if err == nil && code != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, url, code, strings.TrimSpace(string(data)))
	}
	if err != nil {
		c.failed.Add(1)
	}
	return data, err
}

// getJSON is an uncounted read of a daemon's own reporting endpoints.
func (c *client) getJSON(url string, out any) error {
	code, data, err := c.do("GET", url, "", nil)
	if err != nil {
		return err
	}
	if code != 200 {
		return fmt.Errorf("GET %s: status %d", url, code)
	}
	return json.Unmarshal(data, out)
}

type publishReply struct {
	Seq          uint64 `json:"seq"`
	Deliveries   int    `json:"deliveries"`
	IngestWaitNS int64  `json:"ingest_wait_ns"`
	MatchNS      int64  `json:"match_ns"`
	Forwarded    int    `json:"forwarded"`
	Trace        string `json:"trace"`
	bytes        int
}

func (c *client) publish(base, doc string) (publishReply, error) {
	var r publishReply
	data, err := c.op("POST", base+"/publish", "application/xml", doc, 200)
	if err != nil {
		return r, err
	}
	r.bytes = len(data)
	return r, json.Unmarshal(data, &r)
}

func (c *client) subscribe(base, expr, mode string) (uint64, error) {
	body, _ := json.Marshal(map[string]string{"pattern": expr, "mode": mode})
	data, err := c.op("POST", base+"/subscribe", "application/json", string(body), 200)
	if err != nil {
		return 0, err
	}
	var out struct {
		ID uint64 `json:"id"`
	}
	return out.ID, json.Unmarshal(data, &out)
}

func (c *client) unsubscribe(base string, id uint64) error {
	_, err := c.op("DELETE", fmt.Sprintf("%s/subscribe/%d", base, id), "", "", 204)
	return err
}

type delivery struct {
	Doc         uint64 `json:"doc"`
	Cursor      uint64 `json:"cursor"`
	Redelivered bool   `json:"redelivered"`
}

type drainReply struct {
	Deliveries []delivery `json:"deliveries"`
	Pending    int        `json:"pending"`
	Gap        uint64     `json:"gap"`
	Cursor     uint64     `json:"cursor"`
}

func (c *client) drain(base string, id uint64, wait time.Duration) (drainReply, error) {
	var r drainReply
	data, err := c.op("GET", fmt.Sprintf("%s/deliveries/%d?max=1000&wait=%s", base, id, wait), "", "", 200)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(data, &r)
}

func (c *client) ack(base string, id, cursor uint64) error {
	_, err := c.op("POST", fmt.Sprintf("%s/ack/%d", base, id), "application/json", fmt.Sprintf(`{"cursor":%d}`, cursor), 200)
	return err
}

// brokerStats is the part of GET /stats the harness reads.
type brokerStats struct {
	Live           int     `json:"live"`
	Communities    int     `json:"communities"`
	Singletons     int     `json:"singletons"`
	Rebuilds       float64 `json:"rebuilds"`
	Shards         int     `json:"shards"`
	CPUs           int     `json:"cpus"`
	DocsObserved   int     `json:"docs_observed"`
	Deliveries     uint64  `json:"deliveries"`
	PinnedDocs     float64 `json:"pinned_docs"`
	PrecisionProxy float64 `json:"precision_proxy"`
}

func (c *client) stats(base string) (brokerStats, error) {
	var s brokerStats
	return s, c.getJSON(base+"/stats", &s)
}

// scrape is one parsed GET /metrics: per-family sums plus the raw
// samples, which histogram quantiles need.
type scrape struct {
	sum     map[string]float64
	samples []telemetry.Sample
	took    time.Duration
}

func (c *client) metrics(base string) (scrape, error) {
	t0 := time.Now()
	code, data, err := c.do("GET", base+"/metrics", "", nil)
	took := time.Since(t0)
	if err != nil {
		return scrape{}, err
	}
	if code != 200 {
		return scrape{}, fmt.Errorf("GET %s/metrics: status %d", base, code)
	}
	samples, err := telemetry.ParseText(strings.NewReader(string(data)))
	if err != nil {
		return scrape{}, fmt.Errorf("GET %s/metrics: %w", base, err)
	}
	return scrape{sum: telemetry.SumByName(samples), samples: samples, took: took}, nil
}
