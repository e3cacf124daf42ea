package serve

import (
	"fmt"
	"time"

	"wsrs"
	"wsrs/internal/cellcache"
)

// JobRequest is the body of POST /v1/jobs. A request names either a
// predefined experiment (figure4, figure5, energy — expanded
// server-side exactly like the wsrsbench drivers) or an explicit cell
// list; the scalar knobs apply to every cell that does not override
// them.
type JobRequest struct {
	// Experiment selects a named grid: "figure4" (kernels x the
	// Figure 4 configurations), "figure5" (kernels x the two WSRS
	// policies) or "energy" (figure4 with telemetry forced on).
	// Empty means Cells is authoritative.
	Experiment string `json:"experiment,omitempty"`
	// Kernels restricts a named experiment to a benchmark subset
	// (nil = all twelve).
	Kernels []string `json:"kernels,omitempty"`
	// Configs restricts figure4/energy to a configuration subset
	// (nil = the paper's six).
	Configs []string `json:"configs,omitempty"`
	// Cells is the explicit grid for requests without Experiment.
	Cells []CellSpec `json:"cells,omitempty"`

	Warmup    uint64 `json:"warmup,omitempty"`
	Measure   uint64 `json:"measure,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Telemetry bool   `json:"telemetry,omitempty"`
	// Label travels into the job record and the metrics-free event
	// stream; optional.
	Label string `json:"label,omitempty"`
}

// CellSpec is one explicit cell of a JobRequest; zero Seed inherits
// the request seed.
type CellSpec struct {
	Kernel string `json:"kernel"`
	Config string `json:"config"`
	Policy string `json:"policy,omitempty"`
	// Mods is a canonical machine-modification string (see
	// wsrs.ParseMods) layered on the named configuration; the
	// cross-field combination is validated up front by
	// wsrs.ValidateCell.
	Mods string `json:"mods,omitempty"`
	Seed int64  `json:"seed,omitempty"`
}

// RequestError is a structured 400: which field of the request is
// wrong, why, and what would have been accepted.
type RequestError struct {
	Field string   `json:"field"`
	Msg   string   `json:"error"`
	Valid []string `json:"valid,omitempty"`
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("%s: %s", e.Field, e.Msg)
}

// defaults mirror wsrs.SimOpts.withDefaults so the content address of
// an implicit-default request equals the explicit spelling.
const (
	defaultWarmup  = 20_000
	defaultMeasure = 60_000
)

// expand validates a request up front — before any queue slot is
// consumed or simulation starts — and normalizes it into the cell
// identities to run. Every failure is a *RequestError naming the
// offending field and the valid choices.
func (r *JobRequest) expand() ([]cellcache.CellID, error) {
	warmup, measure, seed := r.Warmup, r.Measure, r.Seed
	if warmup == 0 {
		warmup = defaultWarmup
	}
	if measure == 0 {
		measure = defaultMeasure
	}
	if seed == 0 {
		seed = 1
	}
	telemetry := r.Telemetry

	if r.Experiment != "" && len(r.Cells) > 0 {
		return nil, &RequestError{Field: "experiment",
			Msg: "a request names either an experiment or explicit cells, not both"}
	}

	var cells []CellSpec
	switch r.Experiment {
	case "":
		if len(r.Cells) == 0 {
			return nil, &RequestError{Field: "cells",
				Msg:   "empty job: name an experiment or list cells",
				Valid: []string{"figure4", "figure5", "energy"}}
		}
		if len(r.Configs) > 0 || len(r.Kernels) > 0 {
			return nil, &RequestError{Field: "kernels",
				Msg: "kernels/configs filter named experiments; explicit jobs list cells directly"}
		}
		cells = r.Cells
	case "figure4", "energy":
		if r.Experiment == "energy" {
			telemetry = true
		}
		confs := r.Configs
		if confs == nil {
			for _, c := range wsrs.Figure4Configs() {
				confs = append(confs, string(c))
			}
		}
		for _, k := range kernelsOrAll(r.Kernels) {
			for _, c := range confs {
				cells = append(cells, CellSpec{Kernel: k, Config: c})
			}
		}
	case "figure5":
		if len(r.Configs) > 0 {
			return nil, &RequestError{Field: "configs",
				Msg: "figure5 fixes its configurations (the two WSRS policies)"}
		}
		for _, k := range kernelsOrAll(r.Kernels) {
			cells = append(cells,
				CellSpec{Kernel: k, Config: string(wsrs.ConfWSRSRC512)},
				CellSpec{Kernel: k, Config: string(wsrs.ConfWSRSRM512)})
		}
	default:
		return nil, &RequestError{Field: "experiment",
			Msg:   fmt.Sprintf("unknown experiment %q", r.Experiment),
			Valid: []string{"figure4", "figure5", "energy"}}
	}

	out := make([]cellcache.CellID, len(cells))
	for i, c := range cells {
		field := func(name string) string { return fmt.Sprintf("cells[%d].%s", i, name) }
		if err := wsrs.ValidateKernelNames([]string{c.Kernel}); err != nil {
			return nil, &RequestError{Field: field("kernel"),
				Msg: err.Error(), Valid: wsrs.Kernels()}
		}
		conf, err := wsrs.ValidateConfigName(c.Config)
		if err != nil {
			return nil, &RequestError{Field: field("config"),
				Msg: err.Error(), Valid: configNames()}
		}
		if err := wsrs.ValidatePolicyName(c.Policy); err != nil {
			return nil, &RequestError{Field: field("policy"),
				Msg: err.Error(), Valid: wsrs.PolicyNames()}
		}
		if c.Mods != "" {
			if err := wsrs.ValidateMods(c.Mods); err != nil {
				return nil, &RequestError{Field: field("mods"),
					Msg: err.Error(), Valid: wsrs.ModKeys()}
			}
			// Cross-field check: the modified machine must build, and the
			// policy must fit it (e.g. only RR steers a non-4-cluster
			// machine).
			if err := wsrs.ValidateCell(conf, c.Policy, c.Mods); err != nil {
				return nil, &RequestError{Field: field("mods"), Msg: err.Error()}
			}
		}
		cellSeed := c.Seed
		if cellSeed == 0 {
			cellSeed = seed
		}
		out[i] = cellcache.CellID{
			Kernel: c.Kernel, Config: string(conf), Policy: c.Policy,
			Mods: c.Mods,
			Seed: cellSeed, Warmup: warmup, Measure: measure,
			Telemetry: telemetry,
		}
	}
	return out, nil
}

func kernelsOrAll(names []string) []string {
	if len(names) == 0 {
		return wsrs.Kernels()
	}
	return names
}

func configNames() []string {
	out := make([]string, 0, len(wsrs.AllConfigs()))
	for _, c := range wsrs.AllConfigs() {
		out = append(out, string(c))
	}
	return out
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Cache dispositions of one cell.
const (
	CacheHit       = "hit"       // served from the result cache
	CacheCoalesced = "coalesced" // joined an identical in-flight cell
	CacheMiss      = "miss"      // simulated here
	CachePeer      = "peer"      // fetched from a peer daemon's cache
)

// CellStatus is the per-cell view in GET /v1/jobs/{id} and the events
// stream.
type CellStatus struct {
	Index  int              `json:"index"`
	Cell   cellcache.CellID `json:"cell"`
	Digest string           `json:"digest"`
	State  string           `json:"state"`
	// Cache reports how the result was obtained (hit / coalesced /
	// miss); empty until the cell resolves.
	Cache  string  `json:"cache,omitempty"`
	IPC    float64 `json:"ipc,omitempty"`
	Insts  uint64  `json:"insts,omitempty"`
	Cycles int64   `json:"cycles,omitempty"`
	WallMs float64 `json:"wall_ms,omitempty"`
	Error  string  `json:"error,omitempty"`
	// Backend relays the originating member's ErrorEnvelope when the
	// cell failed on a fleet backend — the member's own trace_id and
	// identity, not a coordinator re-wrap.
	Backend *ErrorEnvelope `json:"backend_error,omitempty"`
}

// JobStatus is the job record served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	// TraceID identifies the job's span trace: grep it in the
	// structured logs, or GET /v1/jobs/{id}/trace for the span tree.
	TraceID     string       `json:"trace_id,omitempty"`
	State       string       `json:"state"`
	Created     time.Time    `json:"created"`
	Finished    *time.Time   `json:"finished,omitempty"`
	CellsTotal  int          `json:"cells_total"`
	CellsDone   int          `json:"cells_done"`
	CellsFailed int          `json:"cells_failed"`
	Cells       []CellStatus `json:"cells"`
	Error       string       `json:"error,omitempty"`
}

// Event is one entry of the per-job event stream: a cell resolving,
// or the job reaching a terminal state.
type Event struct {
	Type string      `json:"type"` // "cell" or "job"
	Cell *CellStatus `json:"cell,omitempty"`
	Job  *JobStatus  `json:"job,omitempty"`
}
