package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"teva/internal/guard"
)

// The supervisor<->worker protocol is four JSON endpoints on a loopback
// listener:
//
//	GET  /v1/plan       -> the supervisor's plan bytes, served verbatim
//	POST /v1/lease      {"worker":W}                          -> leaseResp
//	POST /v1/heartbeat  {"lease":L}                           -> ackResp
//	POST /v1/complete   {"lease":L,"unit":U,"sum":S,"err":E}  -> ackResp
//
// The plan is opaque here: the supervisor's caller serializes its run
// description and the worker's caller decodes it, so this package names
// no pipeline setting. Workers are stateless against the protocol:
// everything a worker holds is its current lease, so a restarted worker
// just starts leasing again.

type leaseReq struct {
	Worker string `json:"worker"`
}

type leaseResp struct {
	OK     bool   `json:"ok"`
	Done   bool   `json:"done,omitempty"`
	WaitMS int64  `json:"wait_ms,omitempty"`
	Lease  string `json:"lease,omitempty"`
	TTLMS  int64  `json:"ttl_ms,omitempty"`
	Unit   *Unit  `json:"unit,omitempty"`
}

type heartbeatReq struct {
	Lease string `json:"lease"`
}

type completeReq struct {
	Lease string `json:"lease"`
	Unit  string `json:"unit"`
	Sum   string `json:"sum,omitempty"`
	Err   string `json:"err,omitempty"`
}

type ackResp struct {
	OK bool `json:"ok"`
}

// Coordinator serves the lease protocol for one Tracker on a loopback
// listener. Close stops the listener; in-flight handlers finish.
type Coordinator struct {
	tracker *Tracker
	plan    json.RawMessage
	ln      net.Listener
	srv     *http.Server
	wg      sync.WaitGroup
	sink    guard.Sink
}

// NewCoordinator binds a loopback listener and starts serving the lease
// protocol over tracker, with plan as the /v1/plan body.
func NewCoordinator(tracker *Tracker, plan json.RawMessage) (*Coordinator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("shard: listen: %w", err)
	}
	c := &Coordinator{tracker: tracker, plan: plan, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", c.handlePlan)
	mux.HandleFunc("/v1/lease", c.handleLease)
	mux.HandleFunc("/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/complete", c.handleComplete)
	c.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	guard.Go(&c.wg, &c.sink, "shard.coordinator", func() error {
		// ErrServerClosed (and the listener-closed error surfaced on
		// Close) is the normal shutdown path; there is nothing to report.
		_ = c.srv.Serve(ln)
		return nil
	})
	return c, nil
}

// Addr returns the coordinator's dial address ("127.0.0.1:port").
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close stops the coordinator's listener and waits for the serve loop.
func (c *Coordinator) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := c.srv.Shutdown(ctx)
	c.wg.Wait()
	if serr := c.sink.Join(); serr != nil && err == nil {
		err = serr
	}
	return err
}

func (c *Coordinator) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(c.plan)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseReq
	if !readJSON(w, r, &req) {
		return
	}
	g := c.tracker.Lease(req.Worker)
	resp := leaseResp{OK: g.OK, Done: g.Done, WaitMS: g.Wait.Milliseconds()}
	if g.OK {
		u := g.Unit
		resp.Unit = &u
		resp.Lease = g.Lease
		resp.TTLMS = g.TTL.Milliseconds()
	}
	writeJSON(w, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatReq
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, ackResp{OK: c.tracker.Heartbeat(req.Lease)})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeReq
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, ackResp{OK: c.tracker.Complete(req.Lease, req.Unit, req.Sum, req.Err)})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, "decode: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// Client is a worker's handle on the coordinator.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient dials the coordinator at addr ("127.0.0.1:port").
func NewClient(addr string) *Client {
	return &Client{
		base: "http://" + addr,
		hc:   &http.Client{Timeout: 10 * time.Second},
	}
}

// FetchPlan retrieves the supervisor's plan bytes.
func (c *Client) FetchPlan(ctx context.Context) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/plan", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard: plan: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Lease asks for the next unit.
func (c *Client) Lease(ctx context.Context, worker string) (Grant, error) {
	var resp leaseResp
	if err := c.post(ctx, "/v1/lease", leaseReq{Worker: worker}, &resp); err != nil {
		return Grant{}, err
	}
	g := Grant{OK: resp.OK, Done: resp.Done, Wait: time.Duration(resp.WaitMS) * time.Millisecond}
	if resp.OK {
		if resp.Unit == nil {
			return Grant{}, errors.New("shard: lease response missing unit")
		}
		g.Unit = *resp.Unit
		g.Lease = resp.Lease
		g.TTL = time.Duration(resp.TTLMS) * time.Millisecond
	}
	return g, nil
}

// Heartbeat extends the lease; false means the lease is gone.
func (c *Client) Heartbeat(ctx context.Context, lease string) (bool, error) {
	var resp ackResp
	if err := c.post(ctx, "/v1/heartbeat", heartbeatReq{Lease: lease}, &resp); err != nil {
		return false, err
	}
	return resp.OK, nil
}

// Complete reports a unit result (sum on success, errText on failure).
func (c *Client) Complete(ctx context.Context, lease, unitID, sum, errText string) (bool, error) {
	var resp ackResp
	err := c.post(ctx, "/v1/complete", completeReq{Lease: lease, Unit: unitID, Sum: sum, Err: errText}, &resp)
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// ClientLoop runs a worker's lease/execute/complete cycle until the
// coordinator reports the unit set done, the context is cancelled, or
// the coordinator becomes unreachable. exec computes one unit and
// returns its canonical result checksum. Heartbeats are sent at TTL/3
// while exec runs; an executor panic is reported as a unit error (the
// worker survives to lease the next unit — in-process isolation on top
// of the process-level isolation the supervisor provides).
func ClientLoop(ctx context.Context, c *Client, worker string, exec func(context.Context, Unit) (string, error)) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		g, err := c.Lease(ctx, worker)
		if err != nil {
			return err
		}
		if g.Done {
			return nil
		}
		if !g.OK {
			wait := g.Wait
			if wait <= 0 {
				wait = 100 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			continue
		}
		sum, execErr := runUnit(ctx, c, g, exec)
		errText := ""
		if execErr != nil {
			errText = execErr.Error()
		}
		if _, err := c.Complete(ctx, g.Lease, g.Unit.ID(), sum, errText); err != nil {
			return err
		}
	}
}

// runUnit executes one leased unit with a heartbeat ticker alongside.
func runUnit(ctx context.Context, c *Client, g Grant, exec func(context.Context, Unit) (string, error)) (sum string, err error) {
	hbCtx, stopHB := context.WithCancel(ctx)
	interval := g.TTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	var wg sync.WaitGroup
	var sink guard.Sink
	guard.Go(&wg, &sink, "shard.heartbeat", func() error {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return nil
			case <-t.C:
				// A false or failed heartbeat is not fatal: the worker
				// finishes the unit and lets Complete reconcile it as a
				// late completion.
				_, _ = c.Heartbeat(hbCtx, g.Lease)
			}
		}
	})
	defer func() {
		stopHB()
		wg.Wait()
	}()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("unit %s panicked: %v", g.Unit.ID(), r)
		}
	}()
	return exec(ctx, g.Unit)
}
