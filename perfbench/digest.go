package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"wsrs"
)

// recordedDigests holds each workload's results digest at the default
// seed (defaultSeed). A run at that seed whose digest differs has
// changed simulated results and fails its correctness check.
//
//go:embed digests.json
var recordedDigestsJSON []byte

const defaultSeed = 1

func recordedDigest(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(recordedDigestsJSON, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return m[workload], nil
}

// digester accumulates the results digest: every cell's full
// simulated statistics (cycles, instructions, µops, IPC, memory
// stats, stall and activity counters when enabled) in a fixed order,
// plus any other deterministic output bytes a workload checks.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) results(rs ...wsrs.Result) {
	for _, r := range rs {
		b, err := json.Marshal(r)
		if err != nil {
			panic(err) // Result is plain data; encoding cannot fail
		}
		d.bytes(b)
	}
}

// bytes adds one length-prefixed record.
func (d *digester) bytes(b []byte) {
	fmt.Fprintf(d.h, "%d:", len(b))
	d.h.Write(b)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
