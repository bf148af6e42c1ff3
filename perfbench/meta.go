package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// meta.json carries what BENCHMARK.json's fixed schema has no room for:
// which end-to-end metric and workload each layer metric should move,
// the known defects the workloads leave out, the reference sweep digest
// and the traced run's stated tolerance.
//
//go:embed meta.json
var metaJSON []byte

type layerLink struct {
	Moves     []string `json:"moves"`
	Workloads []string `json:"workloads"`
}

type knownDefect struct {
	Name   string `json:"name"`
	Detail string `json:"detail"`
}

type benchMeta struct {
	Layers         map[string]layerLink `json:"layers"`
	KnownDefects   []knownDefect        `json:"known_defects"`
	SweepReference struct {
		Seed    int64  `json:"seed"`
		Workers int    `json:"workers"`
		Digest  string `json:"digest"`
	} `json:"sweep_reference"`
	// TraceTolerancePct bounds |Σ stage shares − 100| in a traced cast.
	TraceTolerancePct float64 `json:"trace_tolerance_pct"`
}

func loadMeta() benchMeta {
	var m benchMeta
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: meta.json: %v", err))
	}
	return m
}
