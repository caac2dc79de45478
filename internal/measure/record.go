// Package measure implements the paper's measurement infrastructure:
// instrumented client nodes that stamp every incoming network message
// with an NTP-synchronized local timestamp (§II), plus the JSONL
// dataset format the logs are stored in.
//
// A measurement node is a protocol-conformant peer — it relays blocks
// and transactions like any other client and is indistinguishable on
// the wire — with one observer hooked at message ingress, exactly
// where the original study added ~1,000 lines to Geth. The observer
// feeds each reception to the node's Fold, the per-item aggregates the
// analysis index is built from; the raw log of Records is an optional
// sink beside it (Options.Streaming drops it), and analysis.BuildIndex
// replays a log read back from JSONL through the same Fold.
package measure

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/sim"
)

// RecordKind labels a log line.
type RecordKind string

// Record kinds, mirroring the message classes the study logs.
const (
	KindBlock        RecordKind = "block"
	KindAnnouncement RecordKind = "announce"
	KindTx           RecordKind = "tx"
)

// Record is one log line: a message observed by a measurement node.
// LocalMillis carries the node's NTP-skewed clock reading — the only
// timestamp the real study had. TrueMillis carries the simulation's
// ground truth, which the original infrastructure could not observe;
// analyses must not use it except for explicitly-labeled validation.
type Record struct {
	Node        string     `json:"node"`
	Region      string     `json:"region"`
	Kind        RecordKind `json:"kind"`
	LocalMillis int64      `json:"localMillis"`
	TrueMillis  int64      `json:"trueMillis"`
	FromPeer    int        `json:"fromPeer"`
	Hash        string     `json:"hash"`

	// Block fields (kind == block).
	Number     uint64   `json:"number,omitempty"`
	ParentHash string   `json:"parentHash,omitempty"`
	Miner      string   `json:"miner,omitempty"`
	TxCount    int      `json:"txCount,omitempty"`
	GasUsed    uint64   `json:"gasUsed,omitempty"`
	SizeBytes  int      `json:"sizeBytes,omitempty"`
	Uncles     []string `json:"uncles,omitempty"`
	TxHashes   []string `json:"txHashes,omitempty"`
	Extra      uint64   `json:"extra,omitempty"`

	// Transaction fields (kind == tx).
	Sender string `json:"sender,omitempty"`
	Nonce  uint64 `json:"nonce,omitempty"`
}

// LocalTime returns the local timestamp as virtual time.
func (r Record) LocalTime() sim.Time { return sim.Time(r.LocalMillis) }

// WriteJSONL streams records as one JSON object per line.
func WriteJSONL(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return fmt.Errorf("encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL record stream. Blank lines are skipped;
// malformed lines abort with an error naming the line.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	return out, nil
}

// ErrEmptyLog marks analyses attempted over empty logs.
var ErrEmptyLog = errors.New("measure: empty log")
