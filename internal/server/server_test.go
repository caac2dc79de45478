package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/store"
)

// fastSpec returns a registry spec whose run completes instantly with
// one deterministic metric, so handler tests never wait on real
// experiments.
func fastSpec(id string) experiments.Spec {
	return experiments.Spec{
		ID:       id,
		Title:    "test spec " + id,
		Produces: []string{id},
		Run: func(seed uint64, sc experiments.Scale) ([]*experiments.Outcome, error) {
			return []*experiments.Outcome{{
				ID:       id,
				Title:    "test outcome",
				Rendered: fmt.Sprintf("%s seed=%d\n", id, seed),
				Metrics:  map[string]float64{"seed_mod": float64(seed % 97)},
			}}, nil
		},
	}
}

// gateSpec returns a spec that blocks until release is closed,
// signalling each entry on started (buffered by the caller).
func gateSpec(id string, started chan<- struct{}, release <-chan struct{}) experiments.Spec {
	return experiments.Spec{
		ID:       id,
		Title:    "gated spec",
		Produces: []string{id},
		Run: func(seed uint64, sc experiments.Scale) ([]*experiments.Outcome, error) {
			started <- struct{}{}
			<-release
			return []*experiments.Outcome{{ID: id, Rendered: "gated\n",
				Metrics: map[string]float64{"v": 1}}}, nil
		},
	}
}

// testServer builds a Server over the given specs with per-campaign
// in-memory stores, plus an httptest front end. The returned stores
// map fills in as campaigns are submitted.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server, map[string]store.Store) {
	t.Helper()
	stores := map[string]store.Store{}
	var mu sync.Mutex
	if cfg.OpenStore == nil {
		cfg.OpenStore = func(id string) (store.Store, error) {
			st := store.NewMem()
			mu.Lock()
			stores[id] = st
			mu.Unlock()
			return st, nil
		}
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, stores
}

// doJSON runs one request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	var rd *strings.Reader = strings.NewReader(body)
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// waitState polls a campaign until it reaches want (or any terminal
// state) and returns the final status.
func waitState(t *testing.T, base, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		if code := doJSON(t, "GET", base+"/campaigns/"+id, "", &st); code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("campaign %s ended %s (want %s): %+v", id, st.State, want, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %s", id, want)
	return Status{}
}

func TestSubmitRunsCampaignAndServesArtifacts(t *testing.T) {
	specs := []experiments.Spec{fastSpec("A"), fastSpec("B")}
	_, ts, stores := testServer(t, Config{Specs: specs})

	var st Status
	code := doJSON(t, "POST", ts.URL+"/campaigns",
		`{"specs": ["A", "B"], "seed": 7, "repeats": 3}`, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if st.ID != "c000001" || st.Total != 6 {
		t.Fatalf("submit status: %+v", st)
	}
	final := waitState(t, ts.URL, st.ID, StateDone)
	if final.Completed != 6 || final.Failed != 0 {
		t.Fatalf("final status: %+v", final)
	}
	if final.MerkleRoot == "" {
		t.Fatal("done campaign has no merkle root")
	}

	// The artifact store is sealed and self-verifying.
	if err := store.Verify(stores[st.ID]); err != nil {
		t.Fatalf("campaign store fails verification: %v", err)
	}

	// Artifact listing and fetch round-trip the store contents.
	var names []string
	if code := doJSON(t, "GET", ts.URL+"/campaigns/"+st.ID+"/artifacts", "", &names); code != http.StatusOK {
		t.Fatalf("artifact list: HTTP %d", code)
	}
	wantNames := []string{"csv/outcomes.csv", "csv/summary.csv", "manifest.json", "outcomes.json", "rendered.txt"}
	if fmt.Sprint(names) != fmt.Sprint(wantNames) {
		t.Fatalf("artifact names: %v, want %v", names, wantNames)
	}
	for _, name := range names {
		resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/artifacts/" + name)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 1)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n == 0 {
			t.Fatalf("artifact %s: HTTP %d, %d bytes", name, resp.StatusCode, n)
		}
		fromStore, err := stores[st.ID].Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if body[0] != fromStore[0] {
			t.Fatalf("artifact %s differs from store", name)
		}
	}

	// Campaign listing includes it.
	var all []Status
	if code := doJSON(t, "GET", ts.URL+"/campaigns", "", &all); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(all) != 1 || all[0].ID != st.ID {
		t.Fatalf("campaign list: %+v", all)
	}
}

// TestPanickingSpecFailsOnlyItsCampaign: a spec that panics on a runner
// worker fails its own campaign — the other runs still complete and the
// directory still seals — and the process keeps serving: /healthz
// answers and the next campaign runs to done.
func TestPanickingSpecFailsOnlyItsCampaign(t *testing.T) {
	bad := fastSpec("B")
	bad.Run = func(uint64, experiments.Scale) ([]*experiments.Outcome, error) { panic("kaboom") }
	_, ts, stores := testServer(t, Config{Specs: []experiments.Spec{fastSpec("A"), bad, fastSpec("C")}})

	var st Status
	if code := doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["A", "B", "C"], "seed": 7}`, &st); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	final := waitState(t, ts.URL, st.ID, StateFailed)
	if final.Completed != 3 || final.Failed != 1 || !strings.Contains(final.Error, "kaboom") {
		t.Fatalf("final status: %+v", final)
	}
	if err := store.Verify(stores[st.ID]); err != nil {
		t.Fatalf("failed campaign's store is not sealed: %v", err)
	}

	var health map[string]any
	if code := doJSON(t, "GET", ts.URL+"/healthz", "", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz after the panic: HTTP %d %v", code, health)
	}
	if code := doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["A", "C"], "seed": 8}`, &st); code != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", code)
	}
	waitState(t, ts.URL, st.ID, StateDone)
}

func TestSubmitValidation(t *testing.T) {
	_, ts, _ := testServer(t, Config{Specs: []experiments.Spec{fastSpec("A")}})
	cases := []struct {
		name, body string
	}{
		{"unknown spec", `{"specs": ["nope"]}`},
		{"bad scale", `{"specs": ["A"], "scale": "galactic"}`},
		{"malformed json", `{"specs": [`},
		{"bad scenario", `{"scenario": {"name": "x", "mode": "warp"}}`},
		{"missing scenario file", `{"scenario_path": "/nonexistent/file.json"}`},
	}
	for _, tc := range cases {
		var body map[string]string
		if code := doJSON(t, "POST", ts.URL+"/campaigns", tc.body, &body); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400 (%v)", tc.name, code, body)
		}
		if body["error"] == "" {
			t.Errorf("%s: no error message", tc.name)
		}
	}
	// Nothing was enqueued.
	var all []Status
	doJSON(t, "GET", ts.URL+"/campaigns", "", &all)
	if len(all) != 0 {
		t.Fatalf("rejected submissions leaked campaigns: %+v", all)
	}
}

// TestRunLimitRejectsOversizedCampaign: specs x repeats above
// maxCampaignRuns is the submitter's error, not an allocation the
// executor attempts — one POST must not be able to take the process,
// and every other tenant's campaigns, down.
func TestRunLimitRejectsOversizedCampaign(t *testing.T) {
	_, ts, _ := testServer(t, Config{Specs: []experiments.Spec{fastSpec("A"), fastSpec("B")}})
	for _, body := range []string{
		`{"specs": ["A"], "repeats": 2000000000}`,
		fmt.Sprintf(`{"specs": ["A"], "repeats": %d}`, maxCampaignRuns+1),
		fmt.Sprintf(`{"repeats": %d}`, maxCampaignRuns/2+1), // two specs
		`{"specs": ["A"], "repeats": 9223372036854775807}`,
	} {
		var errBody map[string]string
		if code := doJSON(t, "POST", ts.URL+"/campaigns", body, &errBody); code != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400 (%v)", body, code, errBody)
		}
		if !strings.Contains(errBody["error"], "exceeds the limit") {
			t.Fatalf("%s: error %q does not name the limit", body, errBody["error"])
		}
	}
	var health map[string]any
	if code := doJSON(t, "GET", ts.URL+"/healthz", "", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz after the oversized POSTs: HTTP %d %v", code, health)
	}
	// The limit itself is allowed, and the service still runs campaigns.
	var st Status
	if code := doJSON(t, "POST", ts.URL+"/campaigns", `{"repeats": 3}`, &st); code != http.StatusAccepted {
		t.Fatalf("submit after rejections: HTTP %d", code)
	}
	if final := waitState(t, ts.URL, st.ID, StateDone); final.Completed != 6 {
		t.Fatalf("final status: %+v", final)
	}
	if _, err := (&Server{cfg: Config{Specs: []experiments.Spec{fastSpec("A")}}}).resolve(
		SubmitRequest{Repeats: maxCampaignRuns}); err != nil {
		t.Fatalf("a campaign of exactly the limit was rejected: %v", err)
	}
}

func TestUnknownCampaignIs404(t *testing.T) {
	_, ts, _ := testServer(t, Config{Specs: []experiments.Spec{fastSpec("A")}})
	for _, url := range []string{
		"/campaigns/c999999",
		"/campaigns/c999999/events",
		"/campaigns/c999999/artifacts",
		"/campaigns/c999999/artifacts/outcomes.json",
	} {
		if code := doJSON(t, "GET", ts.URL+url, "", nil); code != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", url, code)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	defer close(release)
	specs := []experiments.Spec{gateSpec("G", started, release)}
	_, ts, _ := testServer(t, Config{Specs: specs, Queue: 1, Campaigns: 1})

	// First campaign occupies the executor...
	var first Status
	if code := doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["G"]}`, &first); code != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d", code)
	}
	<-started
	// ...second fills the queue...
	if code := doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["G"]}`, nil); code != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", code)
	}
	// ...third must bounce with 503.
	var errBody map[string]string
	if code := doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["G"]}`, &errBody); code != http.StatusServiceUnavailable {
		t.Fatalf("submit 3: HTTP %d, want 503 (%v)", code, errBody)
	}
	if !strings.Contains(errBody["error"], "queue full") {
		t.Fatalf("503 body: %v", errBody)
	}
}

func TestCancelQueuedCampaign(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	defer close(release)
	specs := []experiments.Spec{gateSpec("G", started, release)}
	_, ts, _ := testServer(t, Config{Specs: specs, Queue: 2, Campaigns: 1})

	var running, queued Status
	doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["G"]}`, &running)
	<-started
	doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["G"]}`, &queued)

	var st Status
	if code := doJSON(t, "DELETE", ts.URL+"/campaigns/"+queued.ID, "", &st); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	if st.State != StateCancelled {
		t.Fatalf("cancelled queued campaign is %s", st.State)
	}
	// The executor must skip it even after the blocker drains: no
	// gated run beyond the first may start.
	select {
	case <-started:
		t.Fatal("cancelled queued campaign was executed")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestCancelRunningCampaignDrainsAndSeals(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	specs := []experiments.Spec{gateSpec("G", started, release)}
	_, ts, stores := testServer(t, Config{Specs: specs, WorkerBudget: 1})

	var st Status
	doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["G"], "repeats": 4}`, &st)
	<-started
	if code := doJSON(t, "DELETE", ts.URL+"/campaigns/"+st.ID, "", nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	close(release) // let the in-flight run drain
	final := waitState(t, ts.URL, st.ID, StateCancelled)
	if final.Completed == 0 || final.Completed == final.Total {
		t.Fatalf("cancelled campaign completed %d/%d runs", final.Completed, final.Total)
	}
	// Partial results are still sealed and verifiable — same contract
	// as interrupting the CLI.
	if err := store.Verify(stores[st.ID]); err != nil {
		t.Fatalf("cancelled campaign store fails verification: %v", err)
	}
}

func TestWorkerBudgetSharedAcrossCampaigns(t *testing.T) {
	// Two executors over a budget of 2: each campaign gets one worker,
	// so with 2 gated campaigns at most 2 runs are ever in flight.
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	specs := []experiments.Spec{gateSpec("G", started, release)}
	_, ts, _ := testServer(t, Config{Specs: specs, Campaigns: 2, WorkerBudget: 2, Queue: 4})

	var ids []string
	for i := 0; i < 2; i++ {
		var st Status
		doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["G"], "repeats": 3, "parallel": 8}`, &st)
		ids = append(ids, st.ID)
	}
	<-started
	<-started
	// Budget 2/2 campaigns = 1 worker each: no third run may start
	// while both gates are held.
	select {
	case <-started:
		t.Fatal("worker budget exceeded: a third run started")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	for _, id := range ids {
		waitState(t, ts.URL, id, StateDone)
	}
}

func TestEventsStreamReplaysFullHistory(t *testing.T) {
	specs := []experiments.Spec{fastSpec("A")}
	_, ts, _ := testServer(t, Config{Specs: specs})
	var st Status
	doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["A"], "repeats": 2, "seed": 9}`, &st)
	waitState(t, ts.URL, st.ID, StateDone)

	// Subscribing after completion replays everything, then the
	// stream closes (terminal state).
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %s", ct)
	}
	var events []Event
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad event %q: %v", data, err)
			}
			events = append(events, ev)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		counts[ev.Type]++
	}
	// queued + running + done states, 2 starts, 2 results.
	if counts["state"] != 3 || counts["start"] != 2 || counts["result"] != 2 {
		t.Fatalf("event counts: %v (%+v)", counts, events)
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("last event: %+v", last)
	}
	for _, ev := range events {
		if ev.Type == "result" && ev.Seed != experiments.SeedFor(9, "A", ev.Repeat) {
			t.Fatalf("result event carries wrong seed: %+v", ev)
		}
	}
}

func TestEventsStreamLiveProgress(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	specs := []experiments.Spec{gateSpec("G", started, release)}
	_, ts, _ := testServer(t, Config{Specs: specs, WorkerBudget: 1})
	var st Status
	doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["G"], "repeats": 2}`, &st)
	<-started

	// Subscribe mid-run: replay must already include the first start.
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(release)

	sawStart, sawDone := false, false
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		if data, ok := strings.CutPrefix(scanner.Text(), "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Type == "start" {
				sawStart = true
			}
			if ev.Type == "state" && ev.State == StateDone {
				sawDone = true
			}
		}
	}
	if !sawStart || !sawDone {
		t.Fatalf("live stream missed events: start=%v done=%v", sawStart, sawDone)
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	srv, ts, _ := testServer(t, Config{Specs: []experiments.Spec{fastSpec("A")}})
	srv.Close()
	if code := doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["A"]}`, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: HTTP %d, want 503", code)
	}
}

func TestArtifactPathTraversalRejected(t *testing.T) {
	specs := []experiments.Spec{fastSpec("A")}
	_, ts, _ := testServer(t, Config{Specs: specs})
	var st Status
	doJSON(t, "POST", ts.URL+"/campaigns", `{"specs": ["A"]}`, &st)
	waitState(t, ts.URL, st.ID, StateDone)
	// The store's name validation rejects traversal; the handler must
	// not leak files outside the campaign store.
	req, err := http.NewRequest("GET", ts.URL+"/campaigns/"+st.ID+"/artifacts/ignored", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.URL.Path = "/campaigns/" + st.ID + "/artifacts/../../../../etc/passwd"
	req.URL.RawPath = ""
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("path traversal served: HTTP %d", resp.StatusCode)
	}
}
