package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// Spec is BENCHMARK.json: the contract this program is run under.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

// SpecWorkload is one declared workload.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric is one declared metric; Bound is set for end-to-end
// metrics only.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricDecl is a metric this program emits. For per-layer metrics,
// moves names the end-to-end metrics the layer should move and on names
// the workloads where it measures something; on the other workloads it
// is reported as 0 (the workload never enters that layer).
type metricDecl struct {
	name   string
	unit   string
	better string
	moves  []string
	on     []string
}

const (
	wPaper   = "paper-burst"
	wScale   = "scale-100k"
	wMix     = "frameworks-mix"
	wControl = "control-plane"
)

var (
	allWorkloads = []string{wPaper, wScale, wMix, wControl}
	auditedSims  = []string{wPaper, wMix}
)

// endToEnd is what a user of the platform sees, reported by every
// untraced run. An "item" is the unit of work each workload counts: a
// platform run (paper-burst, frameworks-mix), a simulated application
// (scale-100k) or an HTTP session (control-plane); see README.md.
var endToEnd = []metricDecl{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "items_per_s", unit: "1/s", better: "higher"},
	{name: "latency_ms", unit: "ms", better: "lower"},
	{name: "live_heap_mb", unit: "MB", better: "lower"},
}

var (
	throughput = []string{"items_per_s", "latency_ms"}
	heap       = []string{"live_heap_mb"}
)

// perLayer is reported by the traced run, one value per metric on every
// workload. Time-valued metrics are measured on every workload; counts
// and shares of a layer a workload bypasses read 0.
var perLayer = []metricDecl{
	{name: "sim.events_per_item", unit: "count", better: "lower", moves: throughput, on: allWorkloads},
	{name: "sim.events_per_s", unit: "1/s", better: "higher", moves: throughput, on: allWorkloads},

	{name: "core.new_platform_us", unit: "us", better: "lower", moves: []string{"setup_s", "items_per_s", "latency_ms"}, on: allWorkloads},
	{name: "core.submit_us_per_app", unit: "us", better: "lower", moves: throughput, on: allWorkloads},
	{name: "core.drain_ms", unit: "ms", better: "lower", moves: throughput, on: allWorkloads},
	{name: "core.digest_us", unit: "us", better: "lower", moves: throughput, on: allWorkloads},
	{name: "core.compute_bid_ns", unit: "ns", better: "lower", moves: throughput, on: allWorkloads},
	{name: "core.audit_us_per_check", unit: "us", better: "lower", moves: throughput, on: allWorkloads},
	{name: "core.audit_checks_per_item", unit: "count", better: "lower", moves: throughput, on: []string{wPaper, wMix, wControl}},
	{name: "core.audit_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wPaper, wMix, wControl}},
	{name: "core.bid_rounds_per_item", unit: "count", better: "lower", moves: throughput, on: allWorkloads},
	{name: "core.vm_transfers_per_item", unit: "count", better: "lower", moves: throughput, on: auditedSims},
	{name: "core.cloud_leases_per_item", unit: "count", better: "lower", moves: throughput, on: []string{wPaper, wMix, wControl}},
	{name: "core.suspensions_per_item", unit: "count", better: "lower", moves: throughput, on: auditedSims},

	{name: "exp.services_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wMix}},
	{name: "exp.serverless_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wMix}},
	{name: "exp.spot_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wMix}},
	{name: "exp.chaos_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wMix}},

	{name: "runtime.allocs_per_item", unit: "count", better: "lower", moves: append(append([]string{}, throughput...), heap...), on: allWorkloads},
	{name: "runtime.bytes_per_item", unit: "B", better: "lower", moves: append(append([]string{}, throughput...), heap...), on: allWorkloads},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: throughput, on: allWorkloads},

	{name: "api.server_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wControl}},
	{name: "api.submit_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wControl}},
	{name: "api.accept_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wControl}},
	{name: "api.status_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wControl}},
	{name: "api.events_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wControl}},
	{name: "api.requests_per_item", unit: "count", better: "lower", moves: throughput, on: []string{wControl}},
	{name: "api.shed_total", unit: "count", better: "lower", moves: throughput, on: []string{wControl}},

	{name: "durable.append_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wControl}},
	{name: "durable.fsync_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wControl}},
	{name: "durable.snapshot_share", unit: "ratio", better: "lower", moves: throughput, on: []string{wControl}},
	{name: "durable.snapshots", unit: "count", better: "lower", moves: throughput, on: []string{wControl}},
	{name: "durable.snapshot_kib", unit: "KiB", better: "lower", moves: throughput, on: []string{wControl}},
	{name: "durable.replay_records", unit: "count", better: "lower", moves: []string{"setup_s"}, on: []string{wControl}},
	{name: "durable.recovery_vs_setup", unit: "ratio", better: "lower", moves: []string{"setup_s"}, on: []string{wControl}},

	{name: "client.late_share", unit: "ratio", better: "lower", moves: []string{"latency_ms"}, on: []string{wControl}},
	{name: "client.lag_p99_share", unit: "ratio", better: "lower", moves: []string{"latency_ms"}, on: []string{wControl}},
	{name: "client.p99_over_p50", unit: "ratio", better: "lower", moves: []string{"latency_ms"}, on: []string{wControl}},

	{name: "trace.overhead_share", unit: "ratio", better: "lower", moves: []string{"latency_ms"}, on: allWorkloads},
}

func init() {
	// One cpu.<pkg> share per repository module, plus the buckets for
	// other meryn packages and for samples with no meryn frame.
	for _, p := range append(append([]string{}, cpuPackages...), "other", "runtime") {
		perLayer = append(perLayer, metricDecl{name: "cpu." + p, unit: "ratio", better: "lower",
			moves: throughput, on: allWorkloads})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
