package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/measure"
)

func TestRunWritesDataset(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-out", dir,
		"-seed", "7",
		"-nodes", "120",
		"-blocks", "40",
		"-peers", "30",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"NA", "EA", "WE", "CE"} {
		path := filepath.Join(dir, name+".jsonl")
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("missing %s: %v", path, err)
		}
		records, err := measure.ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		if len(records) == 0 {
			t.Fatalf("%s is empty", path)
		}
		for _, r := range records {
			if r.Node != name {
				t.Fatalf("%s contains foreign record from %s", path, r.Node)
			}
		}
	}
}

func TestRunWithWorkloadAndTxLinks(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-out", dir,
		"-seed", "8",
		"-nodes", "100",
		"-blocks", "30",
		"-peers", "20",
		"-txrate", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "WE.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := measure.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	sawTx, sawLinks := false, false
	for _, r := range records {
		if r.Kind == measure.KindTx {
			sawTx = true
		}
		if r.Kind == measure.KindBlock && len(r.TxHashes) > 0 {
			sawLinks = true
		}
	}
	if !sawTx {
		t.Fatal("no transaction records despite workload")
	}
	if !sawLinks {
		t.Fatal("no tx links despite the workload")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nodes", "notanumber"}); err == nil {
		t.Fatal("bad flag must fail")
	}
	if err := run([]string{"-out", "/dev/null/impossible", "-nodes", "100", "-blocks", "10"}); err == nil {
		t.Fatal("unwritable output must fail")
	}
}
