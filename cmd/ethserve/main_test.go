package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// startServe boots the full ethserve binary path (flag parsing,
// listener, HTTP server) on a random port against dir and returns the
// base URL plus a shutdown func that waits for a clean exit.
func startServe(t *testing.T, dir string, extraArgs ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-store", dir}, extraArgs...)
	go func() { done <- run(ctx, args, os.Stderr, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("ethserve exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("ethserve never became ready")
	}
	return "http://" + addr, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("ethserve shutdown: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("ethserve did not shut down")
		}
	}
}

// TestEndToEndSubmitFetchVerify is the service smoke test the
// Makefile's test-server target runs: boot ethserve, submit a
// campaign over HTTP, follow it to completion, fetch an artifact, and
// digest-verify the on-disk run directory exactly like
// `ethanalyze -verify` does.
func TestEndToEndSubmitFetchVerify(t *testing.T) {
	root := t.TempDir()
	base, shutdown := startServe(t, root)
	defer shutdown()

	// T1 is the registry's static table — instant at any scale.
	body := `{"specs": ["T1"], "seed": 42, "repeats": 2}`
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %+v", resp.StatusCode, st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(base + "/campaigns/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != server.StateDone || st.Completed != 2 || st.MerkleRoot == "" {
		t.Fatalf("campaign: %+v", st)
	}

	// Fetch an artifact over HTTP and compare to the on-disk copy.
	r, err := http.Get(base + "/campaigns/" + st.ID + "/artifacts/outcomes.json")
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	if _, err := served.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch: HTTP %d", r.StatusCode)
	}
	runDir := filepath.Join(root, st.ID)
	onDisk, err := os.ReadFile(filepath.Join(runDir, "outcomes.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), onDisk) {
		t.Fatal("served artifact differs from the on-disk run directory")
	}

	// The run directory verifies offline against the reported root —
	// the `ethanalyze -verify` contract.
	fsStore := store.NewFS(runDir)
	if err := store.Verify(fsStore); err != nil {
		t.Fatalf("run directory fails verification: %v", err)
	}
	m, err := store.ReadManifest(fsStore)
	if err != nil {
		t.Fatal(err)
	}
	if m.MerkleRoot != st.MerkleRoot {
		t.Fatalf("status root %s != manifest root %s", st.MerkleRoot, m.MerkleRoot)
	}
}

func TestServeRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-badflag"}, os.Stderr, nil); err == nil {
		t.Fatal("bad flag must fail")
	}
}

// TestSlowHeaderClientIsCutOff is the slow-loris regression test: a
// client that sends half a request line and then stalls used to pin its
// connection forever. The server must close it once readHeaderTimeout
// passes, and must keep answering other clients while it waits.
func TestSlowHeaderClientIsCutOff(t *testing.T) {
	base, shutdown := startServe(t, t.TempDir())
	defer shutdown()

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz while a slow client holds a connection: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	// ReadAll returns once the server closes the connection (whatever it
	// wrote first, or a reset); only our own deadline expiring means
	// the server is still holding the connection open.
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server still holds a half-sent request after %v", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, long before readHeaderTimeout %v", waited, readHeaderTimeout)
	}
}
