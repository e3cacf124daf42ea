// Package serve is the serving layer of the reproduction: the HTTP
// machinery that turns the batch harness (wsrs.RunGrid, the named
// experiments and the internal/explore design-space search) into a
// long-running simulation-as-a-service daemon.
//
// The package has these parts:
//
//   - Listen (this file): starts an http.Handler on a background
//     goroutine; cmd/wsrsd serves Server.Handler through it.
//   - Server (server.go, task.go, job.go, explore.go): the wsrsd daemon
//     core. Server.Handler mounts the diagnostic endpoints (/metrics
//     Prometheus exposition, /debug/vars, /debug/pprof) next to the
//     job API. The job API (POST /v1/jobs, GET /v1/jobs/{id}[/results|
//     /events|/trace], DELETE /v1/jobs/{id}) and the explore API
//     (POST /v1/explore, GET /v1/explore/{id}[/frontier|/events],
//     DELETE /v1/explore/{id}) share one task lifecycle: a task is a
//     job whose cells arrive in rounds — one round for a grid job, one
//     per evaluation batch for an exploration. Every cell resolves the
//     same way: result cache, then singleflight coalescing of
//     identical in-flight cells, then a bounded worker pool layered on
//     wsrs.RunGrid, behind admission control (queue cap, 429 +
//     Retry-After) and graceful drain.
//   - The result cache is internal/cellcache: the content-addressed
//     store keyed by the sha256 digest of a cell's identity (in-memory
//     LRU, optional JSONL persistence), the same store RunGrid opens
//     for SimOpts.Checkpoint.
//   - Observability (trace.go, slo.go, metrics.go, log.go, fleet.go):
//     per-task span trees, phase samples and SLOs, /debug/slow, the
//     structured log and the fleet observability surface.
//   - Loadgen (loadgen.go, client.go): a closed-loop load generator
//     and the small API client it, cmd/wsrsexplore and the tests drive.
package serve

import (
	"net"
	"net/http"
	"time"
)

// Listen starts handler on addr on a background goroutine and returns
// the resolved listen address (so ":0" works in tests and scripts)
// and the server for a later graceful Shutdown.
func Listen(addr string, handler http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv, nil
}
