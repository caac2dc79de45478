package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/store"
)

// mixSpecs is the pool the serve-mix campaigns draw from: every cheap
// registry spec, covering block gossip, chain-only and fault runs.
var mixSpecs = []string{"T1", "network", "T2", "chain", "L1", "W1", "INC", "D1", "D2", "A2"}

// mixCampaigns is the length of the serve-mix list.
const mixCampaigns = 25

// serveMixList builds the seeded campaign list, a pure function of
// seed. The shapes and their order are a fixed deck — campaign i asks
// for 1 + i%3 specs dealt round-robin from mixSpecs, at 1 or 2 repeats,
// the single-spec campaigns moved to the end — and the seed draws every
// campaign's base seed. Every seed therefore submits the same work in
// the same order, so runs at different seeds stay comparable: which
// campaigns overlap (peak memory) and where the median campaign falls do
// not depend on a shuffle. The list ends on its lightest campaigns so
// that the makespan is set by throughput, not by which client happened
// to draw the last heavy one.
func serveMixList(seed uint64) []server.SubmitRequest {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e3a1c))
	var heavy, light []server.SubmitRequest
	next := 0
	for i := 0; i < mixCampaigns; i++ {
		req := server.SubmitRequest{
			Seed:    rng.Uint64() >> 1, // JSON-safe in every client
			Scale:   "small",
			Repeats: 1 + (i/3)%2,
		}
		for n := 1 + i%3; n > 0; n-- {
			req.Specs = append(req.Specs, mixSpecs[next%len(mixSpecs)])
			next++
		}
		if len(req.Specs) == 1 {
			light = append(light, req)
		} else {
			heavy = append(heavy, req)
		}
	}
	return append(heavy, light...)
}

// service is an in-process ethserve: server.New with cmd/ethserve's
// defaults (2 executors, queue 16, one FS store per campaign ID) plus
// telemetry, behind a real HTTP listener.
type service struct {
	srv  *server.Server
	ts   *httptest.Server
	root string
}

func startService(root string) *service {
	srv := server.New(server.Config{
		Queue:        16,
		Campaigns:    workers,
		WorkerBudget: workers,
		OpenStore: func(id string) (store.Store, error) {
			return store.NewFS(filepath.Join(root, id)), nil
		},
		Telemetry: true,
	})
	return &service{srv: srv, ts: httptest.NewServer(srv), root: root}
}

func (s *service) close() {
	s.ts.Close()
	s.srv.Close()
}

// served is one campaign as its client saw it: the phase boundaries on
// the wall clock, the operations attempted and failed, and what the
// sealed directory holds.
type served struct {
	sealed
	post, accepted, running, terminal, fetched, verified time.Time
	rejected                                             bool
}

// submit drives one campaign from POST to a verified run directory:
// POST /campaigns, follow /events to a terminal state, fetch
// rendered.txt and telemetry.json, store.Verify the directory. Every
// HTTP request, every (spec, repeat) run and the final verify count as
// operations; a non-2xx reply, a failed run or a campaign that does not
// end "done" is a failure.
func (s *service) submit(client *http.Client, req server.SubmitRequest) served {
	var out served
	body, err := json.Marshal(req)
	if err != nil {
		out.ops++
		out.fail(err)
		return out
	}

	out.post = time.Now()
	out.ops++
	resp, err := client.Post(s.ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		out.fail(err)
		return out
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.accepted = time.Now()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		out.rejected = resp.StatusCode == http.StatusServiceUnavailable
		out.fail(fmt.Errorf("POST /campaigns: %s %v", resp.Status, err))
		return out
	}
	var st server.Status
	if err := json.Unmarshal(reply, &st); err != nil {
		out.fail(err)
		return out
	}

	out.ops++
	final, err := s.follow(client, st.ID, &out)
	if err != nil {
		out.fail(err)
		return out
	}
	if final != server.StateDone {
		out.fail(fmt.Errorf("campaign %s ended %s", st.ID, final))
	}

	artifacts := "/campaigns/" + st.ID + "/artifacts/"
	out.ops += 2
	if _, err := s.get(client, artifacts+experiments.RenderedFile); err != nil {
		out.fail(err)
		return out
	}
	telemetry, err := s.get(client, artifacts+experiments.TelemetryFile)
	if err != nil {
		out.fail(err)
		return out
	}
	out.fetched = time.Now()
	var tel experiments.Telemetry
	if err := json.Unmarshal(telemetry, &tel); err != nil {
		out.fail(err)
	}
	out.rows = tel.Runs

	out.ops++
	dir := store.NewFS(filepath.Join(s.root, st.ID))
	if err := store.Verify(dir); err != nil {
		out.fail(err)
	}
	out.verified = time.Now()
	if out.digest, err = outcomesDigest(dir); err != nil {
		out.fail(err)
	}
	return out
}

// follow reads the campaign's SSE stream to its terminal state,
// stamping the phase boundaries as the events arrive.
func (s *service) follow(client *http.Client, id string, out *served) (server.State, error) {
	resp, err := client.Get(s.ts.URL + "/campaigns/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET events: %s", resp.Status)
	}
	var final server.State
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("parse event: %w", err)
		}
		now := time.Now()
		switch {
		case ev.Type == "result":
			out.ops++
			out.runElapsed += time.Duration(ev.ElapsedMS) * time.Millisecond
			if ev.Error != "" {
				out.fail(fmt.Errorf("%s/%d: %s", ev.Spec, ev.Repeat, ev.Error))
			}
		case ev.Type == "state" && ev.State == server.StateRunning:
			out.running = now
		case ev.Type == "state" && ev.State.Terminal():
			out.terminal = now
			final = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if final == "" {
		return "", fmt.Errorf("campaign %s: event stream ended before a terminal state", id)
	}
	return final, nil
}

func (s *service) get(client *http.Client, path string) ([]byte, error) {
	resp, err := client.Get(s.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

// storeSeconds scrapes GET /metrics for the time the server has spent
// in its artifact stores so far (every ethserve_store_op_seconds_sum
// series). Sealing happens between a campaign's last result event and
// its terminal state, but a client cannot time that gap: under load both
// events reach it in one flush. The server's own histogram can.
func (s *service) storeSeconds(client *http.Client) (float64, error) {
	data, err := s.get(client, "/metrics")
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "ethserve_store_op_seconds_sum{") {
			continue
		}
		_, value, _ := strings.Cut(line, "} ")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %q: %w", line, err)
		}
		total += v
	}
	return total, nil
}

// drain has `workers` closed-loop clients work through the list: each
// submits its next campaign only after the previous one is sealed and
// verified. Results come back in list order.
func (s *service) drain(list []server.SubmitRequest) []served {
	out := make([]served, len(list))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			defer client.CloseIdleConnections()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(list) {
					return
				}
				out[i] = s.submit(client, list[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// listDigest folds the campaigns' outcomes.json digests, in list order,
// into the one digest a serve-mix rep is compared by.
func listDigest(done []served) string {
	h := sha256.New()
	for _, d := range done {
		io.WriteString(h, d.digest+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}
